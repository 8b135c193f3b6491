"""CPE behaviour matrix: honest router / open forwarder / DNAT interceptor.

These tests exercise the exact distinctions the paper's Step 2 relies on
(the table in :mod:`repro.cpe.device`'s docstring).
"""

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import ExchangeStatus, MeasurementClient
from repro.atlas.scenario import build_scenario
from repro.cpe.firmware import (
    dnat_interceptor,
    honest_forwarder,
    honest_router,
    open_wan_forwarder,
)
from repro.dnswire import QType, make_query
from repro.dnswire.chaosnames import make_version_bind_query
from repro.resolvers.software import dnsmasq, unbound

from tests.conftest import make_spec
from tests.simstate import make_id_server_query, trace_events


@pytest.fixture
def org():
    return organization_by_name("Comcast")


def scenario_with(org, firmware, probe_id=100, **kwargs):
    return build_scenario(make_spec(org, probe_id=probe_id, firmware=firmware, **kwargs))


def client_of(scenario):
    return MeasurementClient(scenario.network, scenario.host)


class TestHonestRouter:
    def test_queries_pass_untouched(self, org):
        sc = scenario_with(org, honest_router())
        result = client_of(sc).exchange("1.1.1.1", make_id_server_query(msg_id=1))
        assert result.response is not None
        assert result.response.txt_strings()[0].isupper()

    def test_wan_port53_closed(self, org):
        sc = scenario_with(org, honest_router())
        result = client_of(sc).exchange(
            sc.cpe_public_v4, make_version_bind_query(msg_id=2)
        )
        assert result.status is ExchangeStatus.TIMEOUT

    def test_lan_gateway_port53_closed(self, org):
        sc = scenario_with(org, honest_router())
        result = client_of(sc).exchange("192.168.1.1", make_version_bind_query(msg_id=3))
        assert result.status is ExchangeStatus.TIMEOUT

    def test_snat_applied(self, org):
        sc = scenario_with(org, honest_router())
        net = sc.network
        net.recorder.enabled = True
        client_of(sc).exchange("1.1.1.1", make_id_server_query(msg_id=4))
        snat = [e for e in net.recorder.events if "SNAT" in e.detail]
        assert [(e.node, e.action, e.detail) for e in snat] == [
            ("cpe", "rewrite", f"SNAT 192.168.1.100 -> {sc.cpe_public_v4}"),
            ("cpe", "rewrite", "un-SNAT -> 192.168.1.100"),
        ]

    def test_icmp_un_snat_reaches_host(self, org):
        """The ICMP error a router sends to the WAN address is un-SNAT'd
        by the CPE and delivered to the LAN host, quoting the probe as
        the host sent it."""
        sc = scenario_with(org, honest_router())
        net = sc.network
        net.recorder.enabled = True
        # TTL 2: the CPE forwards it, the next router reports expiry.
        sock = sc.host.open_socket()
        sock.sendto(b"ping", "1.1.1.1", 7000, ttl=2)
        net.run()
        assert len(sc.host.icmp_inbox) == 1
        router_icmp = next(
            e.packet for e in net.recorder.events if e.packet.icmp is not None
        )
        assert router_icmp.dst == sc.cpe_public_v4
        unsnat = [e for e in net.recorder.events if e.detail == "icmp un-SNAT"]
        assert [(e.node, e.action) for e in unsnat] == [("cpe", "rewrite")]
        delivered = trace_events(net.recorder, node=sc.host.name, action="deliver")
        assert [e.packet for e in delivered] == [unsnat[0].packet]
        assert delivered[0].packet.src == router_icmp.src
        quoted = delivered[0].packet.icmp.quoted
        assert str(quoted.src) == "192.168.1.100"
        assert quoted.udp.sport == sock.port


class TestHonestForwarderLanOnly:
    def test_lan_service_answers(self, org):
        sc = scenario_with(org, honest_forwarder(software=dnsmasq("2.80")))
        result = client_of(sc).exchange("192.168.1.1", make_version_bind_query(msg_id=1))
        assert result.response.txt_strings() == ["dnsmasq-2.80"]

    def test_lan_forwarding_resolves_via_isp(self, org):
        sc = scenario_with(org, honest_forwarder())
        result = client_of(sc).exchange(
            "192.168.1.1", make_query("www.example.com.", QType.A, msg_id=2)
        )
        assert result.response.a_addresses() == ["93.184.216.34"]

    def test_wan_port53_still_closed(self, org):
        sc = scenario_with(org, honest_forwarder())
        result = client_of(sc).exchange(
            sc.cpe_public_v4, make_version_bind_query(msg_id=3)
        )
        assert result.status is ExchangeStatus.TIMEOUT

    def test_external_queries_untouched(self, org):
        sc = scenario_with(org, honest_forwarder())
        result = client_of(sc).exchange("1.1.1.1", make_id_server_query(msg_id=4))
        assert result.response.txt_strings()[0].isupper()


class TestOpenWanForwarder:
    """The Appendix-A confounder: answers on its WAN IP, intercepts nothing."""

    def test_wan_port53_answers(self, org):
        sc = scenario_with(org, open_wan_forwarder(software=dnsmasq("2.78")))
        result = client_of(sc).exchange(
            sc.cpe_public_v4, make_version_bind_query(msg_id=1)
        )
        assert result.response.txt_strings() == ["dnsmasq-2.78"]

    def test_reply_source_is_wan_not_spoofed(self, org):
        sc = scenario_with(org, open_wan_forwarder())
        result = client_of(sc).exchange(
            sc.cpe_public_v4, make_version_bind_query(msg_id=2)
        )
        assert result.status is not ExchangeStatus.TIMEOUT  # src validation passed: src == WAN IP

    def test_queries_to_resolvers_untouched(self, org):
        sc = scenario_with(org, open_wan_forwarder())
        result = client_of(sc).exchange("9.9.9.9", make_version_bind_query(msg_id=3))
        assert result.response.txt_strings()[0].startswith("Q9-")

    def test_a_query_to_wan_ip_forwarded_upstream(self, org):
        """Appendix A's point: an ordinary A query to the CPE's public IP
        is answered (via the ISP resolver) even though nothing intercepts."""
        sc = scenario_with(org, open_wan_forwarder())
        result = client_of(sc).exchange(
            sc.cpe_public_v4, make_query("www.example.com.", QType.A, msg_id=4)
        )
        assert result.response.a_addresses() == ["93.184.216.34"]


class TestDnatInterceptor:
    def test_hijacks_resolver_queries(self, org):
        sc = scenario_with(org, dnat_interceptor(software=dnsmasq("2.85")))
        result = client_of(sc).exchange("9.9.9.9", make_version_bind_query(msg_id=1))
        assert result.response.txt_strings() == ["dnsmasq-2.85"]

    def test_traced_dnat_and_relay_details(self, org):
        sc = scenario_with(org, dnat_interceptor())
        sc.network.recorder.enabled = True
        client_of(sc).exchange(
            "9.9.9.9", make_query("www.example.com.", QType.A, msg_id=8)
        )
        cpe_events = [
            (e.action, e.detail)
            for e in sc.network.recorder.events
            if e.node == "cpe"
            and e.action in ("intercept", "forward")
            and not e.detail.startswith("->")
        ]
        upstream = sc.cpe.forwarder.upstream_v4
        assert cpe_events == [
            (
                "intercept",
                f"DNAT 9.9.9.9 -> 192.168.1.1 [{sc.cpe.model} DNS redirection v4]",
            ),
            ("forward", f"forwarder -> upstream {upstream}"),
        ]

    def test_response_source_spoofed_to_target(self, org):
        """The client's stub accepted the answer, so the source must have
        been forged to 9.9.9.9 (otherwise validation would reject it)."""
        sc = scenario_with(org, dnat_interceptor())
        result = client_of(sc).exchange("9.9.9.9", make_version_bind_query(msg_id=2))
        assert result.status is not ExchangeStatus.TIMEOUT

    def test_wan_ip_answers_same_string(self, org):
        sc = scenario_with(org, dnat_interceptor(software=dnsmasq("2.85")))
        client = client_of(sc)
        via_resolver = client.exchange("8.8.8.8", make_version_bind_query(msg_id=3))
        via_wan = client.exchange(sc.cpe_public_v4, make_version_bind_query(msg_id=4))
        assert (
            via_resolver.response.txt_strings() == via_wan.response.txt_strings()
        )

    def test_ordinary_resolution_still_works(self, org):
        """Interception is transparent: example.com still resolves."""
        sc = scenario_with(org, dnat_interceptor())
        result = client_of(sc).exchange(
            "8.8.8.8", make_query("www.example.com.", QType.A, msg_id=5)
        )
        assert result.response.a_addresses() == ["93.184.216.34"]

    def test_intercepts_any_destination(self, org):
        """DNAT catches port 53 to *any* address, even unroutable ones."""
        sc = scenario_with(org, dnat_interceptor())
        result = client_of(sc).exchange(
            "192.0.2.53", make_query("www.example.com.", QType.A, msg_id=6)
        )
        assert result.response is not None

    def test_non_dns_traffic_unaffected(self, org):
        sc = scenario_with(org, dnat_interceptor())
        sock = sc.host.open_socket()
        sock.sendto(b"not dns", "1.1.1.1", 4444)
        sc.network.run()
        # No crash, no interception; eventually dropped at the provider.

    def test_interception_flag_introspection(self, org):
        sc = scenario_with(org, dnat_interceptor())
        assert sc.cpe.intercepts_family(4)
        assert not sc.cpe.intercepts_family(6)

    def test_v6_not_intercepted_by_default(self, org):
        sc = scenario_with(org, dnat_interceptor(), has_ipv6=True)
        result = client_of(sc).exchange(
            "2606:4700:4700::1111", make_id_server_query(msg_id=7)
        )
        # Standard IATA answer: the v6 path is clean (Table 4's finding).
        assert result.response.txt_strings()[0].isupper()

    def test_enable_interception_requires_forwarder(self, org):
        sc = scenario_with(org, honest_router())
        with pytest.raises(ValueError):
            sc.cpe.enable_interception(4)


class TestInterceptorWithUnbound:
    def test_id_server_identity_leaks(self, org):
        """Probe 21823's signature: unbound with an identity string
        answers Cloudflare's location query with 'routing.v2.pw'."""
        firmware = dnat_interceptor(
            software=unbound("1.9.0", identity="routing.v2.pw")
        )
        sc = scenario_with(org, firmware)
        result = client_of(sc).exchange("1.1.1.1", make_id_server_query(msg_id=1))
        assert result.response.txt_strings() == ["routing.v2.pw"]
