"""``repro.net`` — a deterministic packet-level network simulator.

Provides the substrate the measurement runs on: IPv4/IPv6 packets with
TTL semantics, UDP and ICMP, end hosts with sockets, routers with
longest-prefix-match tables and bogon filtering, NAT, and an
iptables-style firewall with the DNAT action that residential-router
interception is built on.
"""

from .addr import (
    BOGON_V4_PREFIXES,
    BOGON_V6_PREFIXES,
    DEFAULT_BOGON_V4,
    DEFAULT_BOGON_V6,
    PrefixPool,
    is_bogon,
    is_ipv6,
    is_private,
    parse_ip,
)
from .packet import (
    DEFAULT_TTL,
    IcmpData,
    IcmpType,
    Packet,
    Protocol,
    UdpData,
    make_icmp_time_exceeded,
    make_reply,
    make_udp,
)
from .dot import DOT_PORT, DotFrame, is_dot_payload, unwrap_dot, wrap_dot
from .doh import (
    DOH_PORT,
    DohRequest,
    DohResponse,
    is_doh_payload,
    unwrap_doh_query,
    unwrap_doh_response,
    wrap_doh_query,
    wrap_doh_response,
)
from .doq import DOQ_PORT, DoqFrame, is_doq_payload, unwrap_doq, wrap_doq
from .stream import pack_identity, unpack_identity
from .impairment import (
    IMPAIRMENT_PROFILES,
    LinkProfile,
    impairment_profile,
)
from .sim import DEFAULT_LATENCY_MS, Network, Node, SimulationError
from .node import Host, ReceivedDatagram, ReceivedIcmp, UdpSocket
from .router import Route, Router, RoutingTable
from .nat import FlowKey, NatBinding, NatTable
from .firewall import Action, Chain, Match, Rule, Verdict, network, udp53_dnat_rule
from .trace import TraceEvent, TraceRecorder

__all__ = [
    "BOGON_V4_PREFIXES",
    "BOGON_V6_PREFIXES",
    "DEFAULT_BOGON_V4",
    "DEFAULT_BOGON_V6",
    "PrefixPool",
    "is_bogon",
    "is_ipv6",
    "is_private",
    "parse_ip",
    "DEFAULT_TTL",
    "IcmpData",
    "IcmpType",
    "Packet",
    "Protocol",
    "UdpData",
    "make_icmp_time_exceeded",
    "make_reply",
    "make_udp",
    "DOT_PORT",
    "DotFrame",
    "is_dot_payload",
    "unwrap_dot",
    "wrap_dot",
    "DOH_PORT",
    "DohRequest",
    "DohResponse",
    "is_doh_payload",
    "unwrap_doh_query",
    "unwrap_doh_response",
    "wrap_doh_query",
    "wrap_doh_response",
    "DOQ_PORT",
    "DoqFrame",
    "is_doq_payload",
    "unwrap_doq",
    "wrap_doq",
    "pack_identity",
    "unpack_identity",
    "IMPAIRMENT_PROFILES",
    "LinkProfile",
    "impairment_profile",
    "DEFAULT_LATENCY_MS",
    "Network",
    "Node",
    "SimulationError",
    "Host",
    "ReceivedDatagram",
    "ReceivedIcmp",
    "UdpSocket",
    "Route",
    "Router",
    "RoutingTable",
    "FlowKey",
    "NatBinding",
    "NatTable",
    "Action",
    "Chain",
    "Match",
    "Rule",
    "Verdict",
    "network",
    "udp53_dnat_rule",
    "TraceEvent",
    "TraceRecorder",
]
