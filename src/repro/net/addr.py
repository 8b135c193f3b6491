"""Addressing helpers and bogon address space.

The third step of the paper's methodology sends DNS queries to *bogon*
addresses — space that must never be routable on the public Internet
(RFC 1918, the documentation TEST-NETs, CGN space, class E, IPv6 ULA and
documentation prefixes). A query addressed to a bogon cannot leave the
client's AS, so any answer proves an in-AS interceptor.

This module centralises "what counts as a bogon" for both the simulator
(routers have no route to bogons) and the measurement core (which picks
the probe addresses).
"""

from __future__ import annotations

import ipaddress
from typing import Union

IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]
IPNetwork = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]

#: IPv4 prefixes that must not appear on the public Internet.
BOGON_V4_PREFIXES: tuple[ipaddress.IPv4Network, ...] = tuple(
    ipaddress.IPv4Network(p)
    for p in (
        "0.0.0.0/8",
        "10.0.0.0/8",
        "100.64.0.0/10",  # carrier-grade NAT (RFC 6598)
        "127.0.0.0/8",
        "169.254.0.0/16",
        "172.16.0.0/12",
        "192.0.0.0/24",
        "192.0.2.0/24",  # TEST-NET-1
        "192.168.0.0/16",
        "198.18.0.0/15",  # benchmarking
        "198.51.100.0/24",  # TEST-NET-2
        "203.0.113.0/24",  # TEST-NET-3
        "240.0.0.0/4",  # class E
    )
)

#: IPv6 prefixes that must not appear on the public Internet.
BOGON_V6_PREFIXES: tuple[ipaddress.IPv6Network, ...] = tuple(
    ipaddress.IPv6Network(p)
    for p in (
        "::/8",
        "100::/64",  # discard-only
        "2001:db8::/32",  # documentation
        "fc00::/7",  # ULA
        "fe80::/10",  # link-local
    )
)

#: The concrete bogon destinations the measurement uses (one per family),
#: mirroring the paper's "one IPv4 and one IPv6 bogon address" (§3.3).
DEFAULT_BOGON_V4 = ipaddress.IPv4Address("192.0.2.53")
DEFAULT_BOGON_V6 = ipaddress.IPv6Address("2001:db8::53")


#: String -> address memo for :func:`parse_ip`. The hot path parses the
#: same few dozen literals (provider anycast addresses, gateway/bogon
#: constants) once per packet hop; ip_address() re-tokenises every time.
#: Address objects are immutable, so sharing them is safe. Bounded;
#: cleared when full.
_PARSE_CACHE: dict[str, IPAddress] = {}
_PARSE_CACHE_MAX = 4096


def parse_ip(value: "str | IPAddress") -> IPAddress:
    """Coerce ``value`` to an address object (identity for address input)."""
    if isinstance(value, (ipaddress.IPv4Address, ipaddress.IPv6Address)):
        return value
    hit = _PARSE_CACHE.get(value)
    if hit is None:
        hit = ipaddress.ip_address(value)
        if len(_PARSE_CACHE) >= _PARSE_CACHE_MAX:
            _PARSE_CACHE.clear()
        _PARSE_CACHE[value] = hit
    return hit


#: String -> network memo for :func:`parse_network`, the same idiom as
#: :func:`parse_ip`: every scenario build adds the same few dozen route
#: prefixes, and ip_network() re-parses each one. Network objects are
#: immutable, so sharing them is safe. Bounded; cleared when full.
_NETWORK_CACHE: dict[str, IPNetwork] = {}
_NETWORK_CACHE_MAX = 4096


def parse_network(value: str) -> IPNetwork:
    """Parse a prefix string (strictly, like ``ipaddress.ip_network``)."""
    hit = _NETWORK_CACHE.get(value)
    if hit is None:
        hit = ipaddress.ip_network(value)
        if len(_NETWORK_CACHE) >= _NETWORK_CACHE_MAX:
            _NETWORK_CACHE.clear()
        _NETWORK_CACHE[value] = hit
    return hit


#: Bogon classification memo: the border router checks every packet it
#: forwards against the same handful of addresses, and prefix membership
#: is pure in the address. Bounded; cleared when full.
_BOGON_CACHE: dict[IPAddress, bool] = {}
_BOGON_CACHE_MAX = 4096


def is_bogon(value: "str | IPAddress") -> bool:
    """True if ``value`` falls in unroutable (bogon) space."""
    address = parse_ip(value)
    hit = _BOGON_CACHE.get(address)
    if hit is None:
        prefixes = BOGON_V4_PREFIXES if address.version == 4 else BOGON_V6_PREFIXES
        hit = any(address in prefix for prefix in prefixes)
        if len(_BOGON_CACHE) >= _BOGON_CACHE_MAX:
            _BOGON_CACHE.clear()
        _BOGON_CACHE[address] = hit
    return hit
