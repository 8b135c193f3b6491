"""Routers: longest-prefix-match forwarding, TTL, ICMP, bogon filtering.

Routers implement the plumbing that makes the paper's three techniques
*mean* something:

- TTL decrement + ICMP Time Exceeded make TTL-based hop localisation
  (the §6 future-work experiment) possible;
- the absence of routes to bogon space (``drop_bogons``) is exactly why
  a bogon query answered implies an in-AS interceptor (§3.3);
- ordinary destination-based forwarding is what a DNAT interceptor
  violates when it "switches roles" (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .addr import IPAddress, IPNetwork, is_bogon, parse_ip, parse_network
from .packet import Packet, make_icmp_time_exceeded
from .sim import Node

#: Route-memo miss marker (a cached ``None`` means "no route").
_MISS = object()


@dataclass(frozen=True)
class Route:
    """One routing-table entry: prefix -> adjacent node."""

    prefix: IPNetwork
    next_hop: str

    @property
    def prefixlen(self) -> int:
        return self.prefix.prefixlen


class RoutingTable:
    """Longest-prefix-match over static routes, per address family."""

    def __init__(self) -> None:
        self._routes: list[Route] = []
        # Host routes (/32, /128) answer most lookups; keep them O(1).
        self._host_routes: dict[IPAddress, Route] = {}
        # Destination -> next hop memo; invalidated on any table change.
        self._lookup_cache: dict[IPAddress, Optional[str]] = {}

    def add(self, prefix: "str | IPNetwork", next_hop: str) -> None:
        if isinstance(prefix, str):
            prefix = parse_network(prefix)
        self._lookup_cache.clear()
        route = Route(prefix, next_hop)
        if prefix.prefixlen == prefix.max_prefixlen:
            self._host_routes[prefix.network_address] = route
            return
        # Kept sorted by descending prefix length, so lookup is a scan to
        # first match; a route goes after those of its own length, as a
        # stable sort would place it.
        routes = self._routes
        index = len(routes)
        while index and routes[index - 1].prefix.prefixlen < prefix.prefixlen:
            index -= 1
        routes.insert(index, route)

    def add_default(self, next_hop: str, family: int = 4) -> None:
        prefix = "0.0.0.0/0" if family == 4 else "::/0"
        self.add(prefix, next_hop)

    def remove(self, prefix: "str | IPNetwork") -> bool:
        """Remove all routes for ``prefix``; True if any existed."""
        if isinstance(prefix, str):
            prefix = parse_network(prefix)
        self._lookup_cache.clear()
        if prefix.prefixlen == prefix.max_prefixlen:
            return self._host_routes.pop(prefix.network_address, None) is not None
        before = len(self._routes)
        self._routes = [r for r in self._routes if r.prefix != prefix]
        return len(self._routes) != before

    def replace(self, prefix: "str | IPNetwork", next_hop: str) -> None:
        """Replace any existing routes for ``prefix`` with one to ``next_hop``."""
        self.remove(prefix)
        self.add(prefix, next_hop)

    def lookup(self, dst: "str | IPAddress") -> Optional[str]:
        address = parse_ip(dst)
        cache = self._lookup_cache
        try:
            return cache[address]
        except KeyError:
            pass
        host = self._host_routes.get(address)
        if host is not None:
            result: Optional[str] = host.next_hop
        else:
            result = None
            for route in self._routes:
                if route.prefix.version == address.version and address in route.prefix:
                    result = route.next_hop
                    break
        if len(cache) >= 1024:
            cache.clear()
        cache[address] = result
        return result

    def __len__(self) -> int:
        return len(self._routes) + len(self._host_routes)

    def __iter__(self):
        return iter(list(self._host_routes.values()) + self._routes)


class Router(Node):
    """A plain IP router.

    ``drop_bogons=True`` models the behaviour of AS border and transit
    routers, which have no route to (and commonly filter) bogon space.
    Access/aggregation routers inside an ISP typically just follow their
    default route, so they leave ``drop_bogons`` off — meaning a bogon
    query *does* travel from the CPE to the border before dying, giving
    in-path middleboxes their chance to intercept it.
    """

    def __init__(
        self,
        name: str,
        addresses: "list[str | IPAddress] | None" = None,
        asn: Optional[int] = None,
        drop_bogons: bool = False,
    ) -> None:
        super().__init__(name, asn=asn)
        self.set_addresses(addresses or [])
        self.routes = RoutingTable()
        self.drop_bogons = drop_bogons

    # -- forwarding ---------------------------------------------------------

    def forward(self, packet: Packet) -> None:
        if packet.ttl <= 1:
            self._emit_time_exceeded(packet)
            return
        packet = packet.decrement_ttl()
        handled = self.inspect_transit(packet)
        if handled:
            return
        self.forward_by_route(packet)

    def forward_by_route(self, packet: Packet) -> None:
        """Plain destination-based forwarding (no inspection)."""
        dst = packet.dst
        if self.drop_bogons and is_bogon(dst):
            self.trace("drop", packet, "bogon destination")
            return
        # The lookup memo answers nearly every hop; skip the call on a hit.
        next_hop = self.routes._lookup_cache.get(dst, _MISS)
        if next_hop is _MISS:
            next_hop = self.routes.lookup(dst)
        if next_hop is None:
            self.trace("drop", packet, "no route")
            return
        network = self.network
        if network is None:
            self.send(next_hop, packet)  # raises: not attached
            return
        if network.observing:
            self.trace("forward", packet, f"-> {next_hop}")
        network.transmit(self.name, next_hop, packet)

    def inspect_transit(self, packet: Packet) -> bool:
        """Hook for middleboxes/CPE. Return True if packet was consumed."""
        return False

    def _emit_time_exceeded(self, packet: Packet) -> None:
        self.trace("drop", packet, "ttl exceeded")
        reporter = self._reporter_address(packet.family)
        if reporter is None:
            return
        icmp = make_icmp_time_exceeded(packet, reporter)
        self.send_toward(icmp)

    def _reporter_address(self, family: int) -> Optional[IPAddress]:
        for address in sorted(self._addresses, key=str):
            if address.version == family:
                return address
        return None

    def send_toward(self, packet: Packet) -> None:
        """Route a locally generated packet (replies, ICMP)."""
        if packet.dst in self.cached_addresses():
            self.deliver_local(packet)
            return
        next_hop = self.routes.lookup(packet.dst)
        if next_hop is None:
            self.trace("drop", packet, "no route for local emission")
            return
        self.send(next_hop, packet)
