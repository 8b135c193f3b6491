"""EDNS(0) — the OPT pseudo-record and the Client-Subnet option.

RFC 6891 defines OPT: a pseudo-record in the additional section whose
class field carries the requester's UDP payload size and whose TTL field
packs the extended RCODE and flags. RFC 7871 defines the EDNS
Client-Subnet (ECS) option that public resolvers attach when talking to
authoritatives — and that Google's ``o-o.myaddr.l.google.com`` debugging
name echoes back as a second TXT string, a detail measurement code in
the wild has to tolerate (our Google matcher strips it).
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, replace
from typing import Optional

from .enums import QType
from .message import Message
from .name import DnsName
from .rr import OpaqueData, ResourceRecord
from .wire import WireError, WireReader, WireWriter

#: Option code for EDNS Client Subnet (RFC 7871).
OPTION_CLIENT_SUBNET = 8
#: Default advertised UDP payload size.
DEFAULT_PAYLOAD_SIZE = 1232
#: The DO (DNSSEC OK) bit in the OPT TTL field.
DO_FLAG = 0x8000


@dataclass(frozen=True)
class EdnsOption:
    """One raw EDNS option (code, payload)."""

    code: int
    data: bytes

    def encode(self, writer: WireWriter) -> None:
        writer.write_u16(self.code)
        writer.write_u16(len(self.data))
        writer.write_bytes(self.data)


@dataclass(frozen=True)
class ClientSubnet:
    """A decoded ECS option."""

    network: "ipaddress.IPv4Network | ipaddress.IPv6Network"
    scope_prefix_len: int = 0

    @property
    def family(self) -> int:
        return self.network.version

    def to_option(self) -> EdnsOption:
        writer = WireWriter()
        family_code = 1 if self.family == 4 else 2
        writer.write_u16(family_code)
        writer.write_u8(self.network.prefixlen)
        writer.write_u8(self.scope_prefix_len)
        # Address truncated to the bytes covering the prefix (RFC 7871 §6).
        nbytes = (self.network.prefixlen + 7) // 8
        writer.write_bytes(self.network.network_address.packed[:nbytes])
        return EdnsOption(OPTION_CLIENT_SUBNET, writer.getvalue())

    @classmethod
    def from_option(cls, option: EdnsOption) -> "ClientSubnet":
        if option.code != OPTION_CLIENT_SUBNET:
            raise WireError(f"not an ECS option: code {option.code}")
        reader = WireReader(option.data)
        family_code = reader.read_u16()
        source_len = reader.read_u8()
        scope_len = reader.read_u8()
        raw = reader.read_bytes(reader.remaining())
        if family_code == 1:
            if source_len > 32:
                raise WireError(f"ECS IPv4 prefix length {source_len} > 32")
            packed = (raw + b"\x00" * 4)[:4]
            address = ipaddress.IPv4Address(packed)
        elif family_code == 2:
            if source_len > 128:
                raise WireError(f"ECS IPv6 prefix length {source_len} > 128")
            packed = (raw + b"\x00" * 16)[:16]
            address = ipaddress.IPv6Address(packed)
        else:
            raise WireError(f"unknown ECS family {family_code}")
        try:
            network = ipaddress.ip_network(f"{address}/{source_len}", strict=False)
        except ValueError as exc:  # pragma: no cover - defence in depth
            raise WireError(f"malformed ECS option: {exc}") from exc
        return cls(network=network, scope_prefix_len=scope_len)

    def to_text(self) -> str:
        return f"{self.network}"


@dataclass(frozen=True)
class Edns:
    """Decoded EDNS state of a message."""

    payload_size: int = DEFAULT_PAYLOAD_SIZE
    extended_rcode: int = 0
    version: int = 0
    dnssec_ok: bool = False
    options: tuple[EdnsOption, ...] = ()

    def client_subnet(self) -> Optional[ClientSubnet]:
        for option in self.options:
            if option.code == OPTION_CLIENT_SUBNET:
                return ClientSubnet.from_option(option)
        return None

    def to_record(self) -> ResourceRecord:
        """Build the OPT pseudo-record for the additional section."""
        ttl = (self.extended_rcode << 24) | (self.version << 16)
        if self.dnssec_ok:
            ttl |= DO_FLAG
        writer = WireWriter()
        for option in self.options:
            option.encode(writer)
        return ResourceRecord(
            name=DnsName.root(),
            rdtype=int(QType.OPT),
            rdclass=self.payload_size,
            ttl=ttl,
            rdata=OpaqueData(writer.getvalue(), int(QType.OPT)),
        )

    @classmethod
    def from_record(cls, record: ResourceRecord) -> "Edns":
        if int(record.rdtype) != int(QType.OPT):
            raise WireError("not an OPT record")
        raw = record.rdata.raw if isinstance(record.rdata, OpaqueData) else b""
        reader = WireReader(raw)
        options: list[EdnsOption] = []
        while not reader.at_end():
            code = reader.read_u16()
            length = reader.read_u16()
            options.append(EdnsOption(code, reader.read_bytes(length)))
        return cls(
            payload_size=int(record.rdclass),
            extended_rcode=(record.ttl >> 24) & 0xFF,
            version=(record.ttl >> 16) & 0xFF,
            dnssec_ok=bool(record.ttl & DO_FLAG),
            options=tuple(options),
        )


def get_edns(message: Message) -> Optional[Edns]:
    """The message's EDNS state, or None if it carries no OPT record."""
    for record in message.additionals:
        if int(record.rdtype) == int(QType.OPT):
            return Edns.from_record(record)
    return None


def with_edns(
    message: Message,
    payload_size: int = DEFAULT_PAYLOAD_SIZE,
    options: tuple[EdnsOption, ...] = (),
    dnssec_ok: bool = False,
) -> Message:
    """Return ``message`` with an OPT record replacing any existing one."""
    edns = Edns(payload_size=payload_size, options=options, dnssec_ok=dnssec_ok)
    additionals = tuple(
        record
        for record in message.additionals
        if int(record.rdtype) != int(QType.OPT)
    ) + (edns.to_record(),)
    return replace(message, additionals=additionals)
