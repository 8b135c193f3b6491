"""Property-based tests on the network substrate."""

import ipaddress

from hypothesis import given, settings, strategies as st

from repro.net import NatTable, make_udp
from repro.net.addr import is_bogon
from repro.net.router import RoutingTable

# -- RoutingTable: LPM must equal a brute-force longest-prefix scan ---------

prefixes_v4 = st.tuples(
    st.integers(0, 2**32 - 1), st.integers(0, 32)
).map(lambda t: ipaddress.ip_network((t[0], t[1]), strict=False))

addresses_v4 = st.integers(0, 2**32 - 1).map(ipaddress.IPv4Address)


@settings(max_examples=150)
@given(st.lists(prefixes_v4, min_size=1, max_size=12), addresses_v4)
def test_lpm_matches_bruteforce(prefixes, address):
    table = RoutingTable()
    for index, prefix in enumerate(prefixes):
        table.add(str(prefix), f"hop{index}")

    expected = None
    best_len = -1
    # First match among equal-length prefixes wins in the table; emulate
    # by scanning in insertion order and taking the strictly longest.
    for index, prefix in enumerate(prefixes):
        if address in prefix and prefix.prefixlen > best_len:
            expected = f"hop{index}"
            best_len = prefix.prefixlen

    result = table.lookup(address)
    if expected is None:
        assert result is None
    else:
        # The table may pick a different next hop among *duplicate*
        # prefixes of the same length; assert the prefix length matched
        # by checking the chosen hop's prefix covers the address at the
        # best length.
        assert result is not None
        chosen = int(result[3:])
        assert address in prefixes[chosen]
        assert prefixes[chosen].prefixlen == best_len


# -- RoutingTable: edits keep the order a stable sort gives ------------------

#: A small pool, so adds, removals and replacements hit the same prefixes
#: (host routes and default routes included) and equal lengths tie.
route_prefixes = st.sampled_from(
    [
        ipaddress.ip_network(text)
        for text in (
            "0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.2.0.0/16",
            "10.1.2.0/24", "10.1.2.3/32", "192.0.2.0/24", "::/0",
            "2001:db8::/32", "2001:db8:1::/48", "2001:db8:1::1/128",
        )
    ]
)
route_edits = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "replace"]),
        route_prefixes,
        st.sampled_from(["a", "b", "c"]),
    ),
    max_size=30,
)
probe_addresses = [
    ipaddress.ip_address(text)
    for text in (
        "10.1.2.3", "10.1.2.4", "10.1.9.9", "10.2.0.1", "10.9.9.9",
        "192.0.2.7", "203.0.113.1", "2001:db8:1::1", "2001:db8:1::2",
        "2001:db8:2::1", "2001:db9::1",
    )
]


class _SortedReference:
    """The table's contract, kept the slow way: non-host routes in
    insertion order, stable-sorted longest prefix first on every read."""

    def __init__(self):
        self.host = {}
        self.routes = []

    def add(self, prefix, next_hop):
        if prefix.prefixlen == prefix.max_prefixlen:
            self.host[prefix.network_address] = (prefix, next_hop)
        else:
            self.routes.append((prefix, next_hop))

    def remove(self, prefix):
        if prefix.prefixlen == prefix.max_prefixlen:
            self.host.pop(prefix.network_address, None)
        else:
            self.routes = [route for route in self.routes if route[0] != prefix]

    def ordered(self):
        return list(self.host.values()) + sorted(
            self.routes, key=lambda route: route[0].prefixlen, reverse=True
        )

    def lookup(self, address):
        if address in self.host:
            return self.host[address][1]
        for prefix, next_hop in self.ordered()[len(self.host):]:
            if prefix.version == address.version and address in prefix:
                return next_hop
        return None


@settings(max_examples=200)
@given(route_edits)
def test_route_edits_keep_stable_sorted_order(edits):
    table = RoutingTable()
    reference = _SortedReference()
    for action, prefix, next_hop in edits:
        if action == "add":
            table.add(prefix, next_hop)
            reference.add(prefix, next_hop)
        elif action == "remove":
            table.remove(prefix)
            reference.remove(prefix)
        else:
            table.replace(prefix, next_hop)
            reference.remove(prefix)
            reference.add(prefix, next_hop)
        assert [(r.prefix, r.next_hop) for r in table] == reference.ordered()
        for address in probe_addresses:
            assert table.lookup(address) == reference.lookup(address), address


# -- NAT: allocated ports are unique, flows are stable, reversal exact -------

flows = st.tuples(
    st.integers(1, 0xFFFE),  # sport
    st.integers(0, 255),  # lan host suffix
    st.sampled_from(["8.8.8.8", "1.1.1.1", "9.9.9.9", "208.67.222.222"]),
)


@settings(max_examples=80)
@given(st.lists(flows, min_size=1, max_size=40, unique=True))
def test_nat_ports_unique_and_reversible(flow_list):
    nat = NatTable(wan_v4="24.0.4.1")
    seen_ports = set()
    for sport, suffix, dst in flow_list:
        packet = make_udp(f"192.168.1.{suffix or 1}", sport, dst, 53, b"q")
        out = nat.translate_outbound(packet)
        assert str(out.src) == "24.0.4.1"
        # Same flow translated twice -> same port; across flows unique.
        again = nat.translate_outbound(packet)
        assert again.udp.sport == out.udp.sport
        seen_ports.add(out.udp.sport)

        reply = make_udp(dst, 53, "24.0.4.1", out.udp.sport, b"a")
        back = nat.translate_inbound(reply)
        assert back is not None
        assert str(back.dst) == str(packet.src)
        assert back.udp.dport == sport
    unique_flows = {(s, su or 1, d) for s, su, d in flow_list}
    assert len(seen_ports) == len(unique_flows)


# -- Bogons: every address inside a bogon prefix is a bogon -------------------


@settings(max_examples=150)
@given(addresses_v4)
def test_bogon_closed_under_membership(address):
    from repro.net.addr import BOGON_V4_PREFIXES

    inside = any(address in prefix for prefix in BOGON_V4_PREFIXES)
    assert is_bogon(address) == inside
