"""``repro.dnswire`` — a from-scratch DNS wire-protocol implementation.

Everything the reproduction sends over the simulated network is a real,
byte-encoded DNS message produced and parsed by this package: names with
compression, the record types the methodology relies on (A/AAAA/TXT plus
the usual zoo), CHAOS-class debugging queries, and authoritative zones
with dynamic (whoami-style) answers.
"""

from .enums import DNS_PORT, Opcode, QClass, QType, RCode
from .name import DnsName, name
from .rr import (
    AAAAData,
    AData,
    CnameData,
    MxData,
    NsData,
    OpaqueData,
    PtrData,
    ResourceRecord,
    SoaData,
    TxtData,
    a_record,
    aaaa_record,
    txt_record,
)
from .edns import (
    ClientSubnet,
    Edns,
    EdnsOption,
    OPTION_CLIENT_SUBNET,
    get_edns,
    with_edns,
)
from .message import Flags, Message, Question, decode_or_none, make_query
from .wire import TruncatedMessageError, WireError, WireReader, WireWriter
from .zone import LookupResult, Zone
from .chaosnames import (
    HOSTNAME_BIND,
    ID_SERVER,
    VERSION_BIND,
    make_chaos_query,
    make_version_bind_query,
)

__all__ = [
    "DNS_PORT",
    "Opcode",
    "QClass",
    "QType",
    "RCode",
    "DnsName",
    "name",
    "AData",
    "AAAAData",
    "TxtData",
    "NsData",
    "CnameData",
    "PtrData",
    "SoaData",
    "MxData",
    "OpaqueData",
    "ResourceRecord",
    "a_record",
    "aaaa_record",
    "txt_record",
    "ClientSubnet",
    "Edns",
    "EdnsOption",
    "OPTION_CLIENT_SUBNET",
    "get_edns",
    "with_edns",
    "Flags",
    "Message",
    "Question",
    "decode_or_none",
    "make_query",
    "WireError",
    "TruncatedMessageError",
    "WireReader",
    "WireWriter",
    "Zone",
    "LookupResult",
    "ID_SERVER",
    "VERSION_BIND",
    "HOSTNAME_BIND",
    "make_chaos_query",
    "make_version_bind_query",
]
