"""``repro.resolvers`` — the DNS server zoo.

Public anycast resolvers with location-query support, ISP recursive
resolvers, the name directory of authoritative zones, and the
software-personality catalog whose ``version.bind`` strings drive the
paper's Step-2 fingerprinting.
"""

from .base import ChaosOutcome, DnsServerNode, chaos_respond
from .directory import (
    AKAMAI_WHOAMI,
    CONTROL_DOMAIN,
    GOOGLE_MYADDR,
    OPENDNS_DEBUG,
    NameDirectory,
    build_default_directory,
)
from .public import PROVIDER_SPECS, Provider, ProviderSpec, PublicResolverNode
from .recursive import RecursiveResolverNode
from .software import (
    ChaosAction,
    ChaosBehavior,
    QUIRKY_STRINGS,
    ServerSoftware,
    bind_debian,
    bind_redhat,
    bind_vanilla,
    dnsmasq,
    microsoft,
    mute,
    pi_hole,
    powerdns,
    quirky,
    silent_forwarder,
    unbound,
    windows_ns,
    xdns,
)

__all__ = [
    "ChaosOutcome",
    "DnsServerNode",
    "chaos_respond",
    "AKAMAI_WHOAMI",
    "CONTROL_DOMAIN",
    "GOOGLE_MYADDR",
    "OPENDNS_DEBUG",
    "NameDirectory",
    "build_default_directory",
    "PROVIDER_SPECS",
    "Provider",
    "ProviderSpec",
    "PublicResolverNode",
    "RecursiveResolverNode",
    "ChaosAction",
    "ChaosBehavior",
    "QUIRKY_STRINGS",
    "ServerSoftware",
    "bind_debian",
    "bind_redhat",
    "bind_vanilla",
    "dnsmasq",
    "microsoft",
    "mute",
    "pi_hole",
    "powerdns",
    "quirky",
    "silent_forwarder",
    "unbound",
    "windows_ns",
    "xdns",
]
