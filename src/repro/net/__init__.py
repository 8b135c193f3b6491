"""``repro.net`` — a deterministic packet-level network simulator.

Provides the substrate the measurement runs on: IPv4/IPv6 packets with
TTL semantics, UDP and ICMP, end hosts with sockets, routers with
longest-prefix-match tables and bogon filtering, NAT, and an
iptables-style firewall with the DNAT action that residential-router
interception is built on.
"""

from .addr import DEFAULT_BOGON_V4, DEFAULT_BOGON_V6, is_bogon, parse_ip
from .packet import (
    DEFAULT_TTL,
    IcmpType,
    Packet,
    Protocol,
    make_icmp_time_exceeded,
    make_reply,
    make_udp,
)
from .dot import DOT_PORT, is_dot_payload, unwrap_dot, wrap_dot
from .doh import (
    DOH_PORT,
    unwrap_doh_query,
    unwrap_doh_response,
    wrap_doh_query,
    wrap_doh_response,
)
from .doq import DOQ_PORT, is_doq_payload, unwrap_doq, wrap_doq
from .stream import pack_identity, unpack_identity
from .impairment import (
    IMPAIRMENT_PROFILES,
    LinkProfile,
    impairment_profile,
)
from .sim import Network, Node, SimulationError
from .node import Host, ReceivedDatagram, ReceivedIcmp
from .router import Router
from .nat import NatTable
from .firewall import Action, Chain, Verdict, udp53_dnat_rule
from .trace import TraceRecorder

__all__ = [
    "DEFAULT_BOGON_V4",
    "DEFAULT_BOGON_V6",
    "is_bogon",
    "parse_ip",
    "DEFAULT_TTL",
    "IcmpType",
    "Packet",
    "Protocol",
    "make_icmp_time_exceeded",
    "make_reply",
    "make_udp",
    "DOT_PORT",
    "is_dot_payload",
    "unwrap_dot",
    "wrap_dot",
    "DOH_PORT",
    "unwrap_doh_query",
    "unwrap_doh_response",
    "wrap_doh_query",
    "wrap_doh_response",
    "DOQ_PORT",
    "is_doq_payload",
    "unwrap_doq",
    "wrap_doq",
    "pack_identity",
    "unpack_identity",
    "IMPAIRMENT_PROFILES",
    "LinkProfile",
    "impairment_profile",
    "Network",
    "Node",
    "SimulationError",
    "Host",
    "ReceivedDatagram",
    "ReceivedIcmp",
    "Router",
    "NatTable",
    "Action",
    "Chain",
    "Verdict",
    "udp53_dnat_rule",
    "TraceRecorder",
]
