"""The iptables-flavoured rule engine and the XDNS DNAT rule."""

import pytest

from repro.net import make_udp
from repro.net.addr import parse_network
from repro.net.firewall import (
    Action,
    Chain,
    Match,
    Rule,
    udp53_dnat_rule,
)
from repro.net.packet import Protocol, make_icmp_time_exceeded


def dns_packet(dst="8.8.8.8", dport=53, src="192.168.1.100"):
    return make_udp(src, 40000, dst, dport, b"q")


class TestMatch:
    def test_empty_match_matches_all(self):
        assert Match().matches(dns_packet())

    def test_protocol(self):
        assert Match(protocol=Protocol.UDP).matches(dns_packet())
        icmp = make_icmp_time_exceeded(dns_packet(), "1.2.3.4")
        assert not Match(protocol=Protocol.UDP).matches(icmp)

    def test_dport(self):
        assert Match(dport=53).matches(dns_packet())
        assert not Match(dport=53).matches(dns_packet(dport=443))

    def test_sport(self):
        assert Match(sport=40000).matches(dns_packet())
        assert not Match(sport=53).matches(dns_packet())

    def test_dst_prefix(self):
        assert Match(dst=parse_network("8.8.8.0/24")).matches(dns_packet())
        assert not Match(dst=parse_network("9.9.9.0/24")).matches(dns_packet())

    def test_src_prefix(self):
        assert Match(src=parse_network("192.168.0.0/16")).matches(dns_packet())

    def test_family(self):
        assert Match(family=4).matches(dns_packet())
        assert not Match(family=6).matches(dns_packet())


class TestRule:
    def test_dnat_requires_target(self):
        with pytest.raises(ValueError):
            Rule(match=Match(), action=Action.DNAT)

    def test_render_iptables_like(self):
        rule = udp53_dnat_rule("192.168.1.1", comment="XDNS")
        text = rule.render()
        assert "-p udp" in text
        assert "--dport 53" in text
        assert "-j DNAT" in text
        assert "--to-destination 192.168.1.1" in text

    def test_render_with_port(self):
        rule = udp53_dnat_rule("192.168.1.1", dnat_port=5353)
        assert "192.168.1.1:5353" in rule.render()


class TestChain:
    def test_first_match_wins(self):
        chain = Chain("PREROUTING")
        chain.append(Rule(Match(dport=53), Action.DROP))
        chain.append(udp53_dnat_rule("192.168.1.1"))
        verdict = chain.evaluate(dns_packet())
        assert verdict.action is Action.DROP

    def test_default_accept(self):
        chain = Chain("PREROUTING")
        verdict = chain.evaluate(dns_packet())
        assert verdict.action is Action.ACCEPT
        assert verdict.rule is None
        assert verdict.packet == dns_packet()

    def test_dnat_rewrites(self):
        chain = Chain("PREROUTING")
        chain.append(udp53_dnat_rule("192.168.1.1"))
        packet = dns_packet()
        verdict = chain.evaluate(packet)
        assert verdict.action is Action.DNAT
        assert str(verdict.packet.dst) == "192.168.1.1"
        assert verdict.packet.udp.dport == 53  # port untouched by default
        assert verdict.packet.src == packet.src

    def test_dnat_only_in_prerouting(self):
        chain = Chain("FORWARD")
        with pytest.raises(ValueError):
            chain.append(udp53_dnat_rule("192.168.1.1"))

    def test_non_dns_traffic_passes_xdns_rule(self):
        chain = Chain("PREROUTING")
        chain.append(udp53_dnat_rule("192.168.1.1"))
        verdict = chain.evaluate(dns_packet(dport=443))
        assert verdict.action is Action.ACCEPT

    def test_xdns_rule_family_bound(self):
        """A v4 DNAT target must not capture IPv6 queries (that was a
        real bug: family-blind match + v4 rewrite = crash)."""
        chain = Chain("PREROUTING")
        chain.append(udp53_dnat_rule("192.168.1.1"))
        pkt6 = make_udp("2601::100", 40000, "2001:4860:4860::8888", 53, b"q")
        assert chain.evaluate(pkt6).action is Action.ACCEPT

    def test_render_chain(self):
        chain = Chain("PREROUTING")
        chain.append(udp53_dnat_rule("192.168.1.1"))
        text = chain.render()
        assert text.startswith("Chain PREROUTING (policy ACCEPT)")
        assert len(chain) == 1
