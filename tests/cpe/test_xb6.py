"""The XB6/RDK-B/XDNS case study (§5)."""

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import ExchangeStatus, MeasurementClient
from repro.net import Host, Network, Router
from repro.cpe.xb6 import RDKB_FIREWALL_EXCERPT, build_xb6, describe_mechanism
from repro.dnswire import QType, make_query
from repro.dnswire.chaosnames import make_version_bind_query
from repro.resolvers.directory import build_default_directory
from repro.resolvers.recursive import RecursiveResolverNode
from repro.resolvers.software import unbound


def xb6_network(buggy=True):
    """host -- xb6 -- access -- resolver (minimal Comcast-style slice)."""
    net = Network(trace=True)
    host = Host("host", addresses=["192.168.1.100"], gateway="cpe")
    resolver = RecursiveResolverNode(
        "resolver",
        addresses=["75.75.75.75"],
        directory=build_default_directory(),
        software=unbound("1.9.0"),
    )
    cpe = build_xb6(
        "cpe",
        lan_v4_prefix="192.168.1.0/24",
        wan_v4="24.0.9.17",
        wan_gateway="access",
        lan_host="host",
        isp_resolver_v4="75.75.75.75",
        buggy=buggy,
    )
    access = Router("access", addresses=["24.0.0.2"])
    for node in (host, cpe, access, resolver):
        net.add_node(node)
    net.connect("host", "cpe", 0.5)
    net.connect("cpe", "access", 4.0)
    net.connect("access", "resolver", 2.0)
    access.routes.add("24.0.9.17/32", "cpe")
    access.routes.add("75.75.75.75/32", "resolver")
    resolver.gateway = "access"
    return net, host, cpe


class TestBuggyXb6:
    def test_redirects_all_v4_dns(self):
        net, host, cpe = xb6_network(buggy=True)
        client = MeasurementClient(net, host)
        result = client.exchange(
            "8.8.8.8", make_query("www.example.com.", QType.A, msg_id=1)
        )
        # Google never answered: the XB6 and the ISP resolver did.
        assert result.response.a_addresses() == ["93.184.216.34"]
        intercepts = [e for e in net.recorder.events if e.action == "intercept"]
        assert intercepts

    def test_dnat_rewrite_visible_in_trace(self):
        net, host, cpe = xb6_network(buggy=True)
        client = MeasurementClient(net, host)
        client.exchange("8.8.8.8", make_query("www.example.com.", QType.A, msg_id=2))
        rewrites = [e for e in net.recorder.events if "DNAT" in e.detail]
        assert any("8.8.8.8" in e.detail for e in rewrites)

    def test_version_bind_answered_by_gateway(self):
        net, host, cpe = xb6_network(buggy=True)
        client = MeasurementClient(net, host)
        result = client.exchange("9.9.9.9", make_version_bind_query(msg_id=3))
        assert result.response.txt_strings()[0].startswith("dnsmasq-")

    def test_firewall_renders_xdns_rule(self):
        _net, _host, cpe = xb6_network(buggy=True)
        text = cpe.render_firewall()
        assert "-p udp" in text and "--dport 53" in text and "DNAT" in text

    def test_describe_mechanism(self):
        _net, _host, cpe = xb6_network(buggy=True)
        text = describe_mechanism(cpe)
        assert "XB6" in text
        assert "firewall.c" in RDKB_FIREWALL_EXCERPT
        assert "Intercepting IPv4: True" in text


class TestHealthyXb6:
    def test_opt_in_off_means_no_interception(self):
        net, host, cpe = xb6_network(buggy=False)
        assert not cpe.intercepts_family(4)
        client = MeasurementClient(net, host)
        result = client.exchange("9.9.9.9", make_version_bind_query(msg_id=4))
        # Nothing upstream serves 9.9.9.9 in this minimal slice: timeout,
        # exactly what a clean path to a missing node looks like.
        assert result.status is ExchangeStatus.TIMEOUT

    def test_replacing_cpe_stops_interception(self):
        """The paper's observation: swapping the CPE suffices."""
        buggy_net, buggy_host, _ = xb6_network(buggy=True)
        clean_net, clean_host, _ = xb6_network(buggy=False)
        q = make_query("www.example.com.", QType.A, msg_id=5)
        hijacked = MeasurementClient(buggy_net, buggy_host).exchange("8.8.8.8", q)
        clean = MeasurementClient(clean_net, clean_host).exchange("8.8.8.8", q)
        assert hijacked.response is not None
        assert clean.status is ExchangeStatus.TIMEOUT  # no Google node here: nothing spoofs it
