"""Routing tables, TTL handling, ICMP generation, bogon filtering."""

from repro.net import Host, Network, Router
from repro.net.packet import IcmpType
from repro.net.router import RoutingTable


class TestRoutingTable:
    def test_longest_prefix_wins(self):
        table = RoutingTable()
        table.add("10.0.0.0/8", "coarse")
        table.add("10.1.0.0/16", "fine")
        assert table.lookup("10.1.2.3") == "fine"
        assert table.lookup("10.2.2.3") == "coarse"

    def test_host_route_beats_everything(self):
        table = RoutingTable()
        table.add("0.0.0.0/0", "default")
        table.add("10.1.2.3/32", "host")
        assert table.lookup("10.1.2.3") == "host"

    def test_default_route(self):
        table = RoutingTable()
        table.add_default("up", family=4)
        assert table.lookup("203.0.113.9") == "up"
        assert table.lookup("2001:db8::1") is None

    def test_v6_default(self):
        table = RoutingTable()
        table.add_default("up6", family=6)
        assert table.lookup("2001:db8::1") == "up6"
        assert table.lookup("1.2.3.4") is None

    def test_no_route_none(self):
        assert RoutingTable().lookup("1.2.3.4") is None

    def test_family_separation(self):
        table = RoutingTable()
        table.add("10.0.0.0/8", "v4hop")
        assert table.lookup("2001:db8::1") is None

    def test_len_and_iter(self):
        table = RoutingTable()
        table.add("10.0.0.0/8", "a")
        table.add("10.1.2.3/32", "b")
        assert len(table) == 2
        assert {r.next_hop for r in table} == {"a", "b"}


def chain_topology(drop_bogons_at_r2=False):
    """host -- r1 -- r2 -- server(host)."""
    net = Network(trace=True)
    host = Host("host", addresses=["10.0.0.100"], gateway="r1")
    r1 = Router("r1", addresses=["10.0.0.1"])
    r2 = Router("r2", addresses=["10.0.1.1"], drop_bogons=drop_bogons_at_r2)
    server = Host("server", addresses=["203.0.113.200"], gateway="r2")
    # NB: 203.0.113.0/24 is TEST-NET-3, handy for the bogon test itself.
    for node in (host, r1, r2, server):
        net.add_node(node)
    net.connect("host", "r1")
    net.connect("r1", "r2")
    net.connect("r2", "server")
    r1.routes.add_default("r2", family=4)
    r1.routes.add("10.0.0.100/32", "host")
    r2.routes.add("203.0.113.200/32", "server")
    r2.routes.add("10.0.0.0/24", "r1")
    return net, host, r1, r2, server


class TestForwarding:
    def test_multi_hop_delivery(self):
        net, host, _r1, _r2, server = chain_topology()
        sock = server.open_socket(7000)
        host_sock = host.open_socket()
        host_sock.sendto(b"ping", "203.0.113.200", 7000)
        net.run()
        datagrams = sock.drain()
        assert len(datagrams) == 1
        assert str(datagrams[0].src) == "10.0.0.100"

    def test_ttl_decrements_per_hop(self):
        net, host, _r1, _r2, server = chain_topology()
        sock = server.open_socket(7000)
        host_sock = host.open_socket()
        host_sock.sendto(b"ping", "203.0.113.200", 7000, ttl=10)
        net.run()
        # Two routers on path: server receives ttl reduced by 2.
        deliver = [e for e in net.recorder.events if e.node == "server" and e.action == "deliver"]
        assert deliver[0].packet.ttl == 8

    def test_ttl_expiry_generates_time_exceeded(self):
        net, host, r1, _r2, _server = chain_topology()
        host_sock = host.open_socket()
        host_sock.sendto(b"ping", "203.0.113.200", 7000, ttl=1)
        net.run()
        assert len(host.icmp_inbox) == 1
        icmp = host.icmp_inbox[0]
        assert icmp.icmp_type is IcmpType.TIME_EXCEEDED
        assert str(icmp.reporter) == "10.0.0.1"  # r1 reported

    def test_ttl_2_expires_at_second_router(self):
        net, host, _r1, _r2, _server = chain_topology()
        host_sock = host.open_socket()
        host_sock.sendto(b"ping", "203.0.113.200", 7000, ttl=2)
        net.run()
        assert str(host.icmp_inbox[0].reporter) == "10.0.1.1"

    def test_icmp_quotes_offending_packet(self):
        net, host, *_ = chain_topology()
        host_sock = host.open_socket()
        sent = host_sock.sendto(b"ping", "203.0.113.200", 7000, ttl=1)
        net.run()
        quoted = host.icmp_inbox[0].quoted
        assert quoted is not None
        assert quoted.udp.dport == 7000
        assert quoted == sent

    def test_no_route_drops(self):
        net, host, r1, *_ = chain_topology()
        # r1's default goes to r2, but r2 has no route for 198.51.100.0/24.
        host_sock = host.open_socket()
        host_sock.sendto(b"x", "198.51.100.9", 7000)
        net.run()
        drops = [e for e in net.recorder.events if e.action == "drop" and e.node == "r2"]
        assert drops

    def test_bogon_filter_drops(self):
        net, host, _r1, r2, server = chain_topology(drop_bogons_at_r2=True)
        sock = server.open_socket(7000)
        host_sock = host.open_socket()
        host_sock.sendto(b"x", "203.0.113.200", 7000)
        net.run()
        assert sock.inbox == []  # TEST-NET-3 destination was filtered
        drops = [
            e
            for e in net.recorder.events
            if e.node == "r2" and e.detail == "bogon destination"
        ]
        assert drops

    def test_router_local_delivery_drops_udp(self):
        net, host, r1, *_ = chain_topology()
        host_sock = host.open_socket()
        host_sock.sendto(b"x", "10.0.0.1", 7000)  # addressed to r1 itself
        net.run()
        deliver = [e for e in net.recorder.events if e.node == "r1" and e.action == "drop"]
        assert deliver


class TestRouteRemoval:
    def test_remove_prefix(self):
        table = RoutingTable()
        table.add("10.0.0.0/8", "a")
        assert table.remove("10.0.0.0/8")
        assert table.lookup("10.1.2.3") is None
        assert not table.remove("10.0.0.0/8")

    def test_remove_host_route(self):
        table = RoutingTable()
        table.add("10.1.2.3/32", "host")
        assert table.remove("10.1.2.3/32")
        assert table.lookup("10.1.2.3") is None

    def test_replace_default(self):
        table = RoutingTable()
        table.add_default("old", family=4)
        table.replace("0.0.0.0/0", "new")
        assert table.lookup("8.8.8.8") == "new"
        # Only one default remains.
        defaults = [r for r in table if r.prefix.prefixlen == 0]
        assert len(defaults) == 1
