"""CPE and forwarder edge cases."""

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import MeasurementClient
from repro.atlas.scenario import build_scenario
from repro.cpe.device import CpeDevice
from repro.cpe.firmware import FirmwareProfile
from repro.cpe.forwarder import ForwarderEngine
from repro.dnswire import QType, RCode, make_query
from repro.net import Network, Host, Router, make_udp
from repro.resolvers.software import dnsmasq

from tests.conftest import make_spec


def tiny_home(forwarder=None, intercept=False):
    """host -- cpe -- access, nothing else (for unreachable-upstream cases)."""
    net = Network()
    host = Host("host", addresses=["192.168.1.100"], gateway="cpe")
    cpe = CpeDevice(
        "cpe",
        lan_v4_prefix="192.168.1.0/24",
        wan_v4="198.51.0.17",
        wan_gateway="access",
        lan_host="host",
        forwarder=forwarder,
    )
    access = Router("access", addresses=["198.51.0.1"])
    for node in (host, cpe, access):
        net.add_node(node)
    net.connect("host", "cpe")
    net.connect("cpe", "access")
    access.routes.add("198.51.0.17/32", "cpe")
    if intercept:
        cpe.enable_interception(4)
    return net, host, cpe


class TestForwarderWithoutUpstream:
    def test_servfail_when_no_upstream_configured(self):
        engine = ForwarderEngine(dnsmasq())  # no upstream at all
        net, host, cpe = tiny_home(forwarder=engine, intercept=True)
        client = MeasurementClient(net, host, timeout_ms=500.0)
        result = client.exchange(
            "8.8.8.8", make_query("www.example.com.", QType.A, msg_id=1)
        )
        assert result.response.rcode == RCode.SERVFAIL

    def test_chaos_still_answered_locally(self):
        from repro.dnswire.chaosnames import make_version_bind_query

        engine = ForwarderEngine(dnsmasq("2.78"))
        net, host, cpe = tiny_home(forwarder=engine, intercept=True)
        client = MeasurementClient(net, host, timeout_ms=500.0)
        result = client.exchange("8.8.8.8", make_version_bind_query(msg_id=2))
        assert result.response.txt_strings() == ["dnsmasq-2.78"]


class TestDirectionClassification:
    def test_is_from_lan_v4(self):
        _net, _host, cpe = tiny_home()
        lan = make_udp("192.168.1.100", 1025, "8.8.8.8", 53, b"")
        wan = make_udp("8.8.8.8", 53, "198.51.0.17", 50000, b"")
        assert cpe.is_from_lan(lan)
        assert not cpe.is_from_lan(wan)

    def test_is_from_lan_v6_without_prefix(self):
        _net, _host, cpe = tiny_home()
        pkt6 = make_udp("2001:db8::1", 1025, "2001:4860:4860::8888", 53, b"")
        assert not cpe.is_from_lan(pkt6)

    def test_render_firewall_empty(self):
        _net, _host, cpe = tiny_home()
        assert "PREROUTING" in cpe.render_firewall()


class TestCpeLocalDrops:
    def test_unknown_port_dropped(self):
        net, host, _cpe = tiny_home()
        sock = host.open_socket()
        sock.sendto(b"x", "192.168.1.1", 8080)
        net.run()
        assert sock.inbox == []

    def test_dns_to_lan_ip_without_forwarder_dropped(self):
        net, host, _cpe = tiny_home(forwarder=None)
        sock = host.open_socket()
        sock.sendto(
            make_query("x.example.", QType.A, msg_id=1).encode(),
            "192.168.1.1",
            53,
        )
        net.run()
        assert sock.inbox == []


class TestMiddleboxWithoutAlternate:
    def test_redirect_policy_without_alternate_passes_through(self):
        """A REDIRECT middlebox with no alternate resolver configured
        cannot hijack; packets flow normally."""
        from repro.interceptors.middlebox import MiddleboxRouter
        from repro.interceptors.policy import intercept_all

        org = organization_by_name("BT")
        sc = build_scenario(make_spec(org, probe_id=1700))
        # Surgically insert a broken middlebox in front of 'core' is
        # complex; instead test the unit behaviour directly.
        mb = MiddleboxRouter("mb", policy=intercept_all())
        packet = make_udp("24.0.4.1", 50000, "8.8.8.8", 53, b"q")
        assert mb._matching_policy(packet) is not None
        assert mb.alternate_for_family(4) is None
        # _inspect_query must decline (returns False -> normal routing).
        assert mb._inspect_query(packet) is False


class TestFirmwareProfileValidation:
    def test_interceptor_without_software_fails_at_build(self):
        org = organization_by_name("BT")
        bad = FirmwareProfile(model="broken", software=None, intercepts_v4=True)
        with pytest.raises(ValueError):
            build_scenario(make_spec(org, probe_id=1701, firmware=bad))
