"""Protocol constants and the unknown-code-point policy."""

import pytest

from repro.dnswire.enums import (
    DNS_PORT,
    MAX_LABEL_LENGTH,
    MAX_NAME_LENGTH,
    Opcode,
    QClass,
    QType,
    RCode,
)


class TestValues:
    """Spot-check registry values against RFC 1035 / IANA."""

    @pytest.mark.parametrize(
        "member,value",
        [
            (QType.A, 1),
            (QType.NS, 2),
            (QType.CNAME, 5),
            (QType.SOA, 6),
            (QType.PTR, 12),
            (QType.MX, 15),
            (QType.TXT, 16),
            (QType.AAAA, 28),
            (QType.OPT, 41),
            (QType.ANY, 255),
        ],
    )
    def test_qtype_values(self, member, value):
        assert int(member) == value

    @pytest.mark.parametrize(
        "member,value",
        [(QClass.IN, 1), (QClass.CH, 3), (QClass.HS, 4), (QClass.ANY, 255)],
    )
    def test_qclass_values(self, member, value):
        assert int(member) == value

    @pytest.mark.parametrize(
        "member,value",
        [
            (RCode.NOERROR, 0),
            (RCode.FORMERR, 1),
            (RCode.SERVFAIL, 2),
            (RCode.NXDOMAIN, 3),
            (RCode.NOTIMP, 4),
            (RCode.REFUSED, 5),
        ],
    )
    def test_rcode_values(self, member, value):
        assert int(member) == value

    def test_constants(self):
        assert DNS_PORT == 53
        assert MAX_LABEL_LENGTH == 63
        assert MAX_NAME_LENGTH == 255


class TestDecode:
    def test_known_value(self):
        assert QType.decode(16) is QType.TXT

    def test_unknown_value_passes_through(self):
        assert QType.decode(9999) == 9999

    def test_label_known(self):
        assert RCode.label(3) == "NXDOMAIN"

    def test_label_unknown(self):
        assert RCode.label(77) == "RCODE77"

    def test_opcode_decode(self):
        assert Opcode.decode(0) is Opcode.QUERY
        assert Opcode.decode(9) == 9
