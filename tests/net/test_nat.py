"""The SNAT engine and its transparency-critical properties."""

import pytest

from repro.net import NatTable, make_udp
from repro.net.nat import NAT_PORT_BASE


@pytest.fixture
def nat():
    return NatTable(wan_v4="24.0.4.1")


def lan_packet(sport=40000, dst="8.8.8.8", dport=53):
    return make_udp("192.168.1.100", sport, dst, dport, b"q")


class TestOutbound:
    def test_rewrites_source(self, nat):
        out = nat.translate_outbound(lan_packet())
        assert str(out.src) == "24.0.4.1"
        assert out.udp.sport == NAT_PORT_BASE
        assert out.dst == lan_packet().dst

    def test_same_flow_same_binding(self, nat):
        first = nat.translate_outbound(lan_packet())
        second = nat.translate_outbound(lan_packet())
        assert first.udp.sport == second.udp.sport
        assert len(nat._outbound) == 1

    def test_different_flows_different_ports(self, nat):
        a = nat.translate_outbound(lan_packet(sport=40000))
        b = nat.translate_outbound(lan_packet(sport=40001))
        assert a.udp.sport != b.udp.sport
        assert len(nat._outbound) == 2

    def test_different_destinations_are_different_flows(self, nat):
        a = nat.translate_outbound(lan_packet(dst="8.8.8.8"))
        b = nat.translate_outbound(lan_packet(dst="1.1.1.1"))
        assert a.udp.sport != b.udp.sport

    def test_no_wan_for_family_returns_none(self):
        nat = NatTable()  # no WAN addresses at all
        assert nat.translate_outbound(lan_packet()) is None


class TestInbound:
    def test_genuine_reply_translates_back(self, nat):
        out = nat.translate_outbound(lan_packet())
        reply = make_udp("8.8.8.8", 53, "24.0.4.1", out.udp.sport, b"a")
        back = nat.translate_inbound(reply)
        assert back is not None
        assert str(back.dst) == "192.168.1.100"
        assert back.udp.dport == 40000

    def test_spoofed_reply_also_translates(self, nat):
        """Full-cone behaviour: a response whose source was forged to the
        target resolver traverses the NAT exactly like the genuine one.
        Transparent interception depends on this (§2)."""
        out = nat.translate_outbound(lan_packet(dst="8.8.8.8"))
        spoofed = make_udp("8.8.8.8", 53, "24.0.4.1", out.udp.sport, b"fake")
        # ... even though it was actually emitted by 10.0.0.53: the claimed
        # source is all the NAT sees.
        assert nat.translate_inbound(spoofed) is not None

    def test_unsolicited_returns_none(self, nat):
        stray = make_udp("8.8.8.8", 53, "24.0.4.1", 50999, b"x")
        assert nat.translate_inbound(stray) is None

    def test_binding_lookup_by_public_port(self, nat):
        out = nat.translate_outbound(lan_packet())
        binding = nat.binding_for_public_port(4, out.udp.sport)
        assert binding is not None
        assert str(binding.flow.src) == "192.168.1.100"
        assert nat.binding_for_public_port(4, 1) is None


class TestDualStack:
    def test_v6_wan(self):
        nat = NatTable(wan_v4="24.0.4.1", wan_v6="2601::1")
        pkt6 = make_udp("fd00::100", 40000, "2001:4860:4860::8888", 53, b"q")
        out = nat.translate_outbound(pkt6)
        assert str(out.src) == "2601::1"

    def test_wan_address_accessor(self):
        nat = NatTable(wan_v4="24.0.4.1")
        assert str(nat.wan_address(4)) == "24.0.4.1"
        assert nat.wan_address(6) is None
