"""Resource records and RDATA encodings.

Each RDATA kind is a small immutable class with ``encode``/``decode``
methods. Unknown types round-trip through :class:`OpaqueData`, so a
message containing records we do not model still decodes and re-encodes
byte-identically — important when replaying captured interceptor traffic.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass
from typing import ClassVar

from .enums import QClass, QType
from .wire import WireError, WireReader, WireWriter
from .name import DnsName, name


class RData:
    """Base class for typed RDATA. Subclasses set ``rdtype``."""

    rdtype: ClassVar[int] = 0

    def encode(self, writer: WireWriter) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def to_text(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class AData(RData):
    """IPv4 address record (type A)."""

    address: ipaddress.IPv4Address
    rdtype: ClassVar[int] = QType.A

    def __post_init__(self) -> None:
        object.__setattr__(self, "address", ipaddress.IPv4Address(self.address))

    def encode(self, writer: WireWriter) -> None:
        writer.write_bytes(self.address.packed)

    @classmethod
    def decode(cls, reader: WireReader, rdlength: int) -> "AData":
        if rdlength != 4:
            raise WireError(f"A rdata must be 4 bytes, got {rdlength}")
        return cls(ipaddress.IPv4Address(reader.read_bytes(4)))

    def to_text(self) -> str:
        return str(self.address)


@dataclass(frozen=True)
class AAAAData(RData):
    """IPv6 address record (type AAAA)."""

    address: ipaddress.IPv6Address
    rdtype: ClassVar[int] = QType.AAAA

    def __post_init__(self) -> None:
        object.__setattr__(self, "address", ipaddress.IPv6Address(self.address))

    def encode(self, writer: WireWriter) -> None:
        writer.write_bytes(self.address.packed)

    @classmethod
    def decode(cls, reader: WireReader, rdlength: int) -> "AAAAData":
        if rdlength != 16:
            raise WireError(f"AAAA rdata must be 16 bytes, got {rdlength}")
        return cls(ipaddress.IPv6Address(reader.read_bytes(16)))

    def to_text(self) -> str:
        return str(self.address)


@dataclass(frozen=True)
class TxtData(RData):
    """TXT record: a tuple of character-strings.

    Location-query answers (Table 1) and ``version.bind`` answers are all
    TXT records, so this is the single most-used RDATA type in the
    reproduction.
    """

    strings: tuple[bytes, ...]
    rdtype: ClassVar[int] = QType.TXT

    @classmethod
    def from_text(cls, *texts: str) -> "TxtData":
        return cls(tuple(t.encode("utf-8") for t in texts))

    def encode(self, writer: WireWriter) -> None:
        for chunk in self.strings:
            if len(chunk) > 255:
                raise WireError("TXT character-string exceeds 255 bytes")
            writer.write_u8(len(chunk))
            writer.write_bytes(chunk)

    @classmethod
    def decode(cls, reader: WireReader, rdlength: int) -> "TxtData":
        end = reader.offset + rdlength
        strings: list[bytes] = []
        while reader.offset < end:
            length = reader.read_u8()
            strings.append(reader.read_bytes(length))
        if reader.offset != end:
            raise WireError("TXT rdata overran its rdlength")
        return cls(tuple(strings))

    def to_text(self) -> str:
        return " ".join(
            '"' + chunk.decode("utf-8", "replace") + '"' for chunk in self.strings
        )

    @property
    def joined(self) -> str:
        """All character-strings concatenated and decoded; the usual view."""
        return b"".join(self.strings).decode("utf-8", "replace")


@dataclass(frozen=True)
class NameData(RData):
    """Base for RDATA that is a single domain name (NS, CNAME, PTR)."""

    target: DnsName

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", name(self.target))

    def encode(self, writer: WireWriter) -> None:
        # Names inside RDATA are written uncompressed so that rdlength
        # never depends on compression context (matches modern practice
        # and RFC 3597's rule for unknown types).
        self.target.encode(writer, compress=False)

    @classmethod
    def decode(cls, reader: WireReader, rdlength: int) -> "NameData":
        return cls(DnsName.decode(reader))

    def to_text(self) -> str:
        return self.target.to_text()


@dataclass(frozen=True)
class NsData(NameData):
    rdtype: ClassVar[int] = QType.NS


@dataclass(frozen=True)
class CnameData(NameData):
    rdtype: ClassVar[int] = QType.CNAME


@dataclass(frozen=True)
class PtrData(NameData):
    rdtype: ClassVar[int] = QType.PTR


@dataclass(frozen=True)
class SoaData(RData):
    """Start-of-authority record."""

    mname: DnsName
    rname: DnsName
    serial: int = 1
    refresh: int = 3600
    retry: int = 600
    expire: int = 86400
    minimum: int = 300
    rdtype: ClassVar[int] = QType.SOA

    def __post_init__(self) -> None:
        object.__setattr__(self, "mname", name(self.mname))
        object.__setattr__(self, "rname", name(self.rname))

    def encode(self, writer: WireWriter) -> None:
        self.mname.encode(writer, compress=False)
        self.rname.encode(writer, compress=False)
        writer.write_u32(self.serial)
        writer.write_u32(self.refresh)
        writer.write_u32(self.retry)
        writer.write_u32(self.expire)
        writer.write_u32(self.minimum)

    @classmethod
    def decode(cls, reader: WireReader, rdlength: int) -> "SoaData":
        mname = DnsName.decode(reader)
        rname = DnsName.decode(reader)
        return cls(
            mname,
            rname,
            serial=reader.read_u32(),
            refresh=reader.read_u32(),
            retry=reader.read_u32(),
            expire=reader.read_u32(),
            minimum=reader.read_u32(),
        )

    def to_text(self) -> str:
        return (
            f"{self.mname.to_text()} {self.rname.to_text()} {self.serial} "
            f"{self.refresh} {self.retry} {self.expire} {self.minimum}"
        )


@dataclass(frozen=True)
class MxData(RData):
    """Mail-exchanger record."""

    preference: int
    exchange: DnsName
    rdtype: ClassVar[int] = QType.MX

    def __post_init__(self) -> None:
        object.__setattr__(self, "exchange", name(self.exchange))

    def encode(self, writer: WireWriter) -> None:
        writer.write_u16(self.preference)
        self.exchange.encode(writer, compress=False)

    @classmethod
    def decode(cls, reader: WireReader, rdlength: int) -> "MxData":
        preference = reader.read_u16()
        return cls(preference, DnsName.decode(reader))

    def to_text(self) -> str:
        return f"{self.preference} {self.exchange.to_text()}"


@dataclass(frozen=True)
class OpaqueData(RData):
    """Catch-all for types we do not model; preserves raw bytes."""

    raw: bytes
    type_code: int = 0

    @property
    def rdtype(self) -> int:  # type: ignore[override]
        return self.type_code

    def encode(self, writer: WireWriter) -> None:
        writer.write_bytes(self.raw)

    @classmethod
    def decode(cls, reader: WireReader, rdlength: int, type_code: int) -> "OpaqueData":
        return cls(reader.read_bytes(rdlength), type_code)

    def to_text(self) -> str:
        return "\\# " + str(len(self.raw)) + " " + self.raw.hex()


_RDATA_DECODERS = {
    QType.A: AData.decode,
    QType.AAAA: AAAAData.decode,
    QType.TXT: TxtData.decode,
    QType.NS: NsData.decode,
    QType.CNAME: CnameData.decode,
    QType.PTR: PtrData.decode,
    QType.SOA: SoaData.decode,
    QType.MX: MxData.decode,
}


@dataclass(frozen=True)
class ResourceRecord:
    """A complete resource record: owner name, type, class, TTL, RDATA."""

    name: DnsName
    rdtype: int
    rdclass: int
    ttl: int
    rdata: RData

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", name(self.name))

    def encode(self, writer: WireWriter) -> None:
        self.name.encode(writer)
        writer.write_u16(int(self.rdtype))
        writer.write_u16(int(self.rdclass))
        writer.write_u32(self.ttl)
        # Write a zero rdlength placeholder, encode the RDATA in place,
        # then patch the real length in — no scratch writer, no copy.
        # Name remembering is paused so RDATA-internal names (always
        # uncompressed) stay invisible to the message's compression map,
        # exactly as when they were encoded into a throwaway buffer.
        length_at = writer.offset
        writer.write_u16(0)
        prior = writer.pause_names()
        try:
            self.rdata.encode(writer)
        finally:
            writer.resume_names(prior)
        rdlength = writer.offset - length_at - 2
        writer.patch_u16(length_at, rdlength)

    @classmethod
    def decode(cls, reader: WireReader) -> "ResourceRecord":
        owner = DnsName.decode(reader)
        rdtype = QType.decode(reader.read_u16())
        rdclass = QClass.decode(reader.read_u16())
        ttl = reader.read_u32()
        rdlength = reader.read_u16()
        end = reader.offset + rdlength
        decoder = _RDATA_DECODERS.get(rdtype)
        try:
            if decoder is None:
                rdata: RData = OpaqueData.decode(reader, rdlength, int(rdtype))
            else:
                rdata = decoder(reader, rdlength)
        except WireError:
            raise
        except (ValueError, OverflowError, struct.error) as exc:
            # A hostile RDATA payload must surface as WireError — the one
            # exception family ``decode_or_none`` treats as "no usable
            # response" — not as whatever ``ipaddress``/``struct``/codec
            # internals happen to raise on junk bytes.
            raise WireError(
                f"malformed {QType.label(rdtype)} rdata: {exc}"
            ) from exc
        if reader.offset != end:
            raise WireError(
                f"rdata decode for type {rdtype} consumed "
                f"{reader.offset - (end - rdlength)} of {rdlength} bytes"
            )
        return cls(owner, rdtype, rdclass, ttl, rdata)

    def to_text(self) -> str:
        return (
            f"{self.name.to_text()} {self.ttl} {QClass.label(self.rdclass)} "
            f"{QType.label(self.rdtype)} {self.rdata.to_text()}"
        )


def txt_record(
    owner: "str | DnsName",
    *strings: str,
    rdclass: int = QClass.IN,
    ttl: int = 0,
) -> ResourceRecord:
    """Convenience constructor for the TXT records this project lives on."""
    return ResourceRecord(name(owner), QType.TXT, rdclass, ttl, TxtData.from_text(*strings))


def a_record(owner: "str | DnsName", address: str, ttl: int = 60) -> ResourceRecord:
    return ResourceRecord(
        name(owner), QType.A, QClass.IN, ttl, AData(ipaddress.IPv4Address(address))
    )


def aaaa_record(owner: "str | DnsName", address: str, ttl: int = 60) -> ResourceRecord:
    return ResourceRecord(
        name(owner), QType.AAAA, QClass.IN, ttl, AAAAData(ipaddress.IPv6Address(address))
    )
