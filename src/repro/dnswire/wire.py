"""Low-level byte readers and writers for DNS wire encoding.

The DNS wire format mixes fixed-width big-endian integers, length-prefixed
labels and backward compression pointers. :class:`WireWriter` and
:class:`WireReader` provide a small, explicit API over a byte buffer so
the higher-level encoders stay readable.
"""

from __future__ import annotations

import struct


class WireError(ValueError):
    """Raised when a DNS message cannot be encoded or decoded."""


class TruncatedMessageError(WireError):
    """Raised when the wire buffer ends before a field is complete."""


class WireWriter:
    """Append-only writer producing a DNS wire-format byte string.

    Bytes accumulate in a single ``bytearray``: appends extend the buffer
    in place without wrapping each chunk in a fresh ``bytes`` object, and
    already-written fields (e.g. an RDLENGTH placeholder) can be patched
    through :meth:`patch_u16` once their value is known.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        # Name compression state: case-exact label-tuple suffix -> offset.
        # Keys preserve the spelled labels (not a lowercased comparison
        # form): a pointer to a differently-cased earlier spelling would
        # rewrite the later name on the wire and break 0x20 case fidelity.
        self._name_offsets: dict[tuple[str, ...], int] = {}
        # While True, remember_name is a no-op. RDATA encoders set this so
        # names inside RDATA (always encoded uncompressed) never become
        # compression targets for later names in the same message.
        self._names_paused = False

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def offset(self) -> int:
        """Current write offset (== number of bytes written so far)."""
        return len(self._buffer)

    def write_bytes(self, data: bytes) -> None:
        # ``+=`` copies the payload into the buffer directly; immutable
        # input no longer takes an extra bytes(data) round trip, and
        # mutable buffers (bytearray/memoryview) are still copied by the
        # extend itself, so later mutation cannot corrupt the message.
        self._buffer += data

    def write_u8(self, value: int) -> None:
        if not 0 <= value <= 0xFF:
            raise WireError(f"u8 out of range: {value}")
        self._buffer.append(value)

    def write_u16(self, value: int) -> None:
        if not 0 <= value <= 0xFFFF:
            raise WireError(f"u16 out of range: {value}")
        self._buffer += struct.pack("!H", value)

    def write_u32(self, value: int) -> None:
        if not 0 <= value <= 0xFFFFFFFF:
            raise WireError(f"u32 out of range: {value}")
        self._buffer += struct.pack("!I", value)

    def patch_u16(self, offset: int, value: int) -> None:
        """Overwrite two already-written bytes at ``offset`` with ``value``."""
        if not 0 <= value <= 0xFFFF:
            raise WireError(f"u16 out of range: {value}")
        if not 0 <= offset <= len(self._buffer) - 2:
            raise WireError(f"patch offset out of range: {offset}")
        struct.pack_into("!H", self._buffer, offset, value)

    def pause_names(self) -> bool:
        """Stop remembering compression targets; returns the prior state."""
        prior = self._names_paused
        self._names_paused = True
        return prior

    def resume_names(self, prior: bool = False) -> None:
        """Restore the name-remembering state saved by :meth:`pause_names`."""
        self._names_paused = prior

    def remember_name(self, key: tuple[str, ...], offset: int) -> None:
        """Record that the name suffix ``key`` was encoded at ``offset``.

        Compression pointers can only target the first 0x3FFF bytes;
        suffixes beyond that are silently not remembered.
        """
        if self._names_paused:
            return
        if offset <= 0x3FFF and key not in self._name_offsets:
            self._name_offsets[key] = offset

    def lookup_name(self, key: tuple[str, ...]) -> int | None:
        """Return a previously remembered offset for ``key``, if any."""
        return self._name_offsets.get(key)

    def getvalue(self) -> bytes:
        return bytes(self._buffer)


class WireReader:
    """Cursor-based reader over a DNS wire-format byte string."""

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = bytes(data)
        self._offset = offset

    @property
    def offset(self) -> int:
        return self._offset

    @property
    def data(self) -> bytes:
        return self._data

    def remaining(self) -> int:
        return len(self._data) - self._offset

    def at_end(self) -> bool:
        return self._offset >= len(self._data)

    def seek(self, offset: int) -> None:
        if not 0 <= offset <= len(self._data):
            raise TruncatedMessageError(f"seek out of range: {offset}")
        self._offset = offset

    def read_bytes(self, count: int) -> bytes:
        if count < 0:
            raise WireError(f"negative read: {count}")
        if self.remaining() < count:
            raise TruncatedMessageError(
                f"need {count} bytes at offset {self._offset}, "
                f"have {self.remaining()}"
            )
        chunk = self._data[self._offset : self._offset + count]
        self._offset += count
        return chunk

    def read_u8(self) -> int:
        return self.read_bytes(1)[0]

    def read_u16(self) -> int:
        return struct.unpack("!H", self.read_bytes(2))[0]

    def read_u32(self) -> int:
        return struct.unpack("!I", self.read_bytes(4))[0]
