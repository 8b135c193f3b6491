"""DNS protocol constants.

Numeric values follow RFC 1035 and the IANA DNS parameter registry. Only
the subset needed by the reproduction is defined, but each enum tolerates
unknown values: wire decoding never raises on an unassigned code point and
instead preserves the raw integer.
"""

from __future__ import annotations

import enum


class _WireEnum(enum.IntEnum):
    """Base for wire enums: unknown code points decode to a plain int."""

    @classmethod
    def decode(cls, value: int) -> int:
        """Return the enum member for ``value``, or ``value`` itself."""
        try:
            return cls(value)
        except ValueError:
            return value

    @classmethod
    def label(cls, value: int) -> str:
        """Human-readable name for ``value`` (``TYPE123`` style if unknown)."""
        try:
            return cls(value).name
        except ValueError:
            return f"{cls.__name__.upper()}{value}"


class Opcode(_WireEnum):
    """DNS header opcodes (RFC 1035 §4.1.1)."""

    QUERY = 0
    IQUERY = 1
    STATUS = 2
    NOTIFY = 4
    UPDATE = 5


class RCode(_WireEnum):
    """DNS response codes (RFC 1035 §4.1.1, RFC 6895).

    The paper's technique keys on several of these: ``NOTIMP``,
    ``NXDOMAIN``, ``SERVFAIL`` and ``REFUSED`` all appear in Tables 2-3
    and in the transparency analysis of §4.1.2.
    """

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5
    YXDOMAIN = 6
    YXRRSET = 7
    NXRRSET = 8
    NOTAUTH = 9
    NOTZONE = 10
    BADVERS = 16


class QType(_WireEnum):
    """Resource record / query types."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    PTR = 12
    HINFO = 13
    MX = 15
    TXT = 16
    AAAA = 28
    SRV = 33
    OPT = 41
    DS = 43
    RRSIG = 46
    NSEC = 47
    DNSKEY = 48
    ANY = 255
    CAA = 257


class QClass(_WireEnum):
    """Resource record / query classes.

    ``CH`` (CHAOS) matters here: the debugging queries at the heart of the
    paper's methodology — ``id.server``, ``version.bind``,
    ``hostname.bind`` (RFC 4892) — are CHAOS-class TXT queries.
    """

    IN = 1
    CH = 3
    HS = 4
    NONE = 254
    ANY = 255


#: Maximum label length in a DNS name (RFC 1035 §2.3.4).
MAX_LABEL_LENGTH = 63
#: Maximum encoded name length, including the root byte (RFC 1035 §2.3.4).
MAX_NAME_LENGTH = 255
#: Standard DNS port.
DNS_PORT = 53
