"""Domain names with RFC 1035 wire encoding, including compression.

``DnsName`` is an immutable sequence of labels. Comparison and hashing are
case-insensitive, as DNS requires, but the original spelling is preserved
for presentation — this matters when an interceptor echoes a query name
back and we want to show exactly what appeared on the wire.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .enums import MAX_LABEL_LENGTH, MAX_NAME_LENGTH
from .wire import TruncatedMessageError, WireError, WireReader, WireWriter

#: Compression pointer marker bits (RFC 1035 §4.1.4).
_POINTER_MASK = 0xC0
#: Safety bound on pointer chases, far above any legal message's need.
_MAX_POINTER_HOPS = 128


class NameError_(WireError):
    """Raised for malformed domain names."""


def _ends_with_unescaped_dot(text: str) -> bool:
    """True if the final ``.`` of ``text`` is a label separator.

    A trailing dot is escaped (part of the last label) exactly when it is
    preceded by an odd number of backslashes: ``"a\\."`` ends in a literal
    dot, while ``"a\\\\."`` ends in an escaped backslash plus a separator.
    """
    if not text.endswith("."):
        return False
    backslashes = 0
    for ch in reversed(text[:-1]):
        if ch != "\\":
            break
        backslashes += 1
    return backslashes % 2 == 0


def _unescape(text: str) -> list[str]:
    """Split presentation-format ``text`` into labels.

    Honours ``\\.`` (literal dot), ``\\\\`` (literal backslash) and RFC
    4343 ``\\DDD`` decimal escapes for bytes that do not print safely.
    """
    labels: list[str] = []
    current: list[str] = []
    it = iter(text)
    for ch in it:
        if ch == "\\":
            nxt = next(it, None)
            if nxt is None:
                raise NameError_(f"dangling escape in name: {text!r}")
            if nxt.isdigit():
                digits = nxt + "".join(next(it, "") for _ in range(2))
                if len(digits) != 3 or not digits.isdigit() or int(digits) > 255:
                    raise NameError_(f"bad \\DDD escape in name: {text!r}")
                current.append(chr(int(digits)))
            else:
                current.append(nxt)
        elif ch == ".":
            labels.append("".join(current))
            current = []
        else:
            current.append(ch)
    labels.append("".join(current))
    return labels


def _escape_label(label: str) -> str:
    """Presentation-escape one label: ``\\.``, ``\\\\`` and ``\\DDD``.

    Whitespace and control characters are escaped decimally so that
    presentation text survives ``from_text`` (which strips outer
    whitespace) and terminal display unambiguously.
    """
    out: list[str] = []
    for ch in label:
        if ch in ("\\", "."):
            out.append("\\" + ch)
        elif ch <= " " or ch == "\x7f":
            out.append(f"\\{ord(ch):03d}")
        else:
            out.append(ch)
    return "".join(out)


class DnsName:
    """An immutable, case-insensitively-compared domain name."""

    __slots__ = ("_labels", "_key", "_hash")

    def __init__(self, labels: Iterable[str] = ()) -> None:
        labels = tuple(labels)
        # Both bounds are over *encoded* bytes: a multi-byte UTF-8 label
        # is longer on the wire than its character count suggests.
        encoded_len = 1
        for label in labels:
            if not label:
                raise NameError_("empty label inside a name")
            raw_len = len(label.encode("utf-8", "surrogateescape"))
            if raw_len > MAX_LABEL_LENGTH:
                raise NameError_(f"label too long: {label!r}")
            encoded_len += raw_len + 1
        if encoded_len > MAX_NAME_LENGTH:
            raise NameError_(f"name too long ({encoded_len} bytes)")
        self._labels = labels
        self._key = tuple(label.lower() for label in labels)
        self._hash: int | None = None

    # -- construction --------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "DnsName":
        """Parse presentation format, e.g. ``"id.server."``.

        A single ``"."`` (or ``""``) is the root name.
        """
        # Strip only ASCII whitespace: exactly the characters ``to_text``
        # renders as \DDD escapes, so decoded hostile labels that begin
        # or end with exotic Unicode whitespace survive a text roundtrip.
        text = text.strip(" \t\r\n\x0b\x0c")
        if text in ("", "."):
            return cls(())
        if _ends_with_unescaped_dot(text):
            text = text[:-1]
        return cls(_unescape(text))

    @classmethod
    def root(cls) -> "DnsName":
        return cls(())

    # -- properties -----------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def is_root(self) -> bool:
        return not self._labels

    def to_text(self) -> str:
        """Presentation format with a trailing dot (root is ``"."``)."""
        if not self._labels:
            return "."
        return ".".join(_escape_label(label) for label in self._labels) + "."

    def parent(self) -> "DnsName":
        """The name with its leftmost label removed; root's parent is root."""
        if not self._labels:
            return self
        return DnsName(self._labels[1:])

    def is_subdomain_of(self, other: "DnsName") -> bool:
        """True if ``self`` equals or falls under ``other``."""
        if len(other._key) > len(self._key):
            return False
        if not other._key:
            return True
        return self._key[-len(other._key):] == other._key

    def prepend(self, label: str) -> "DnsName":
        return DnsName((label,) + self._labels)

    def concatenate(self, suffix: "DnsName") -> "DnsName":
        return DnsName(self._labels + suffix._labels)

    # -- wire format ----------------------------------------------------

    def encode(self, writer: WireWriter, compress: bool = True) -> None:
        """Append this name, using compression pointers where possible."""
        labels = self._labels
        for index in range(len(labels)):
            # The key is the label tuple itself, not a dotted join: a
            # label containing "." must never alias a two-label suffix.
            # It is also *case-exact* (the spelled labels, not the
            # lowercased comparison key): RFC 1035 §4.1.4 compression is
            # allowed across case, but pointing at a differently-cased
            # earlier spelling silently rewrites this name on the wire —
            # fatal for 0x20-style case fidelity, where the echoed
            # spelling is the signal.
            suffix_key = labels[index:]
            if compress:
                pointer = writer.lookup_name(suffix_key)
                if pointer is not None:
                    writer.write_u16(_POINTER_MASK << 8 | pointer)
                    return
            writer.remember_name(suffix_key, writer.offset)
            raw = labels[index].encode("utf-8", "surrogateescape")
            writer.write_u8(len(raw))
            writer.write_bytes(raw)
        writer.write_u8(0)

    @classmethod
    def decode(cls, reader: WireReader) -> "DnsName":
        """Read a (possibly compressed) name at the reader's cursor."""
        labels: list[str] = []
        hops = 0
        encoded_len = 1
        return_offset: int | None = None
        while True:
            length = reader.read_u8()
            if length & _POINTER_MASK == _POINTER_MASK:
                low = reader.read_u8()
                target = (length & ~_POINTER_MASK) << 8 | low
                if return_offset is None:
                    return_offset = reader.offset
                if target >= len(reader.data):
                    raise TruncatedMessageError("pointer beyond buffer")
                hops += 1
                if hops > _MAX_POINTER_HOPS:
                    raise NameError_("compression pointer loop")
                reader.seek(target)
                continue
            if length & _POINTER_MASK:
                raise NameError_(f"reserved label type: {length:#x}")
            if length == 0:
                break
            raw = reader.read_bytes(length)
            # Enforce RFC 1035's 255-byte bound on the *reassembled* name
            # as it accumulates, so a pointer-grafted hostile name is
            # rejected early instead of growing to buffer scale.
            encoded_len += length + 1
            if encoded_len > MAX_NAME_LENGTH:
                raise NameError_(
                    f"name exceeds {MAX_NAME_LENGTH} wire bytes"
                )
            labels.append(raw.decode("utf-8", "surrogateescape"))
        if return_offset is not None:
            reader.seek(return_offset)
        return cls(labels)

    # -- dunder ----------------------------------------------------------

    def __iter__(self) -> Iterator[str]:
        return iter(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DnsName):
            return self._key == other._key
        if isinstance(other, str):
            return self._key == DnsName.from_text(other)._key
        return NotImplemented

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = self._hash = hash(self._key)
        return cached

    def __lt__(self, other: "DnsName") -> bool:
        return self._key < other._key

    def __repr__(self) -> str:
        return f"DnsName({self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()


def name(text: "str | DnsName") -> DnsName:
    """Coerce ``text`` to a :class:`DnsName` (identity for DnsName input)."""
    if isinstance(text, DnsName):
        return text
    return DnsName.from_text(text)
