"""Firmware profiles: declarative descriptions of CPE behaviour.

A :class:`FirmwareProfile` captures everything the population generator
needs to instantiate a CPE: its embedded forwarder software (if any),
whether it intercepts each family, and whether its WAN port 53 is open.
Profiles are the unit the RIPE-Atlas-style fleet is sampled over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.interceptors.encrypted import (
    EncryptedAction,
    EncryptedDnsPolicy,
    PASS_THROUGH,
    downgrade_all,
)
from repro.resolvers.software import (
    ServerSoftware,
    bind_debian,
    bind_redhat,
    bind_vanilla,
    dnsmasq,
    microsoft,
    pi_hole,
    powerdns,
    q9,
    quirky,
    unbound,
    windows_ns,
    xdns,
)
from repro.values import hash_once, shared_factory


@hash_once
@dataclass(frozen=True)
class FirmwareProfile:
    """Static behaviour of one CPE model/firmware combination."""

    model: str
    software: Optional[ServerSoftware] = None
    intercepts_v4: bool = False
    intercepts_v6: bool = False
    wan_port53_open: bool = False
    notes: str = ""
    #: How this firmware treats encrypted DNS leaving the LAN (block /
    #: downgrade-to-53 / pass-through, per protocol and optionally per
    #: SNI). Part of the profile's identity: it feeds the scenario
    #: signature through the frozen dataclass hash like every other
    #: field, so two probes differing only here never share a scenario.
    encrypted_dns: EncryptedDnsPolicy = PASS_THROUGH

    @property
    def is_interceptor(self) -> bool:
        return self.intercepts_v4 or self.intercepts_v6


@shared_factory
def honest_router(model: str = "plain-router") -> FirmwareProfile:
    """A gateway with no DNS service at all — the common good citizen."""
    return FirmwareProfile(model=model, software=None)


@shared_factory
def honest_forwarder(
    software: Optional[ServerSoftware] = None,
    model: str = "lan-forwarder",
    wan_open: bool = False,
) -> FirmwareProfile:
    """A gateway offering DNS to the LAN (DHCP points clients at it)
    but *not* hijacking traffic addressed elsewhere."""
    return FirmwareProfile(
        model=model,
        software=software or dnsmasq("2.80"),
        wan_port53_open=wan_open,
        notes="forwarder, no interception",
    )


@shared_factory
def open_wan_forwarder(
    software: Optional[ServerSoftware] = None, model: str = "open-forwarder"
) -> FirmwareProfile:
    """The Appendix-A confounder: port 53 answers on the WAN address,
    yet nothing is intercepted."""
    return honest_forwarder(software=software, model=model, wan_open=True)


@shared_factory
def dnat_interceptor(
    software: Optional[ServerSoftware] = None,
    model: str = "dnat-interceptor",
    v4: bool = True,
    v6: bool = False,
) -> FirmwareProfile:
    """A gateway whose PREROUTING chain hijacks port 53 to its forwarder.

    Its encrypted-DNS posture matches its plaintext aggression within
    its means: port 853 (DoT and DoQ) is firewalled outright, but DoH
    shares port 443 with every other HTTPS flow, so it slips through —
    the asymmetry that makes DoH the strongest evasion transport.
    """
    return FirmwareProfile(
        model=model,
        software=software or dnsmasq("2.80"),
        intercepts_v4=v4,
        intercepts_v6=v6,
        notes="DNAT interception",
        encrypted_dns=EncryptedDnsPolicy(
            dot=EncryptedAction.BLOCK,
            doq=EncryptedAction.BLOCK,
        ),
    )


@shared_factory
def xb6_profile(buggy: bool = True) -> FirmwareProfile:
    """The Arris/Technicolor XB6 running RDK-B with XDNS (§5).

    The XDNS filtering service is opt-in; ``buggy=True`` models the units
    the paper found redirecting *all* queries to the ISP resolver without
    user consent.

    The buggy units also terminate encrypted transports and *downgrade*
    them: the session ends on the gateway's own certificate and the
    query is forced through the ISP resolver over plaintext — the XDNS
    redirection applied one layer up. Only opportunistic-profile clients
    accept the swap; strict profiles see the foreign identity.
    """
    return FirmwareProfile(
        model="XB6",
        software=xdns(),
        intercepts_v4=buggy,
        intercepts_v6=False,
        notes="RDK-B XDNS DNAT redirection bug" if buggy else "RDK-B XDNS (opt-in off)",
        encrypted_dns=downgrade_all() if buggy else PASS_THROUGH,
    )


#: Canonical public-resolver TLS names a DNS-filtering deployment
#: blocklists to stop clients bypassing it over encrypted transports
#: (the Mozilla-canary / known-DoH-endpoint blocklist pattern). Spelled
#: out here rather than imported from :mod:`repro.resolvers.public` —
#: a blocklist is curated by name, and drifting with the provider
#: catalog would hide exactly the gaps such lists have in reality.
PUBLIC_RESOLVER_SNIS: frozenset[str] = frozenset(
    {"one.one.one.one", "dns.google", "dns.quad9.net", "dns.opendns.com"}
)


@shared_factory
def pihole_profile(version: str = "2.81") -> FirmwareProfile:
    """A home network whose owner deliberately intercepts DNS with a
    Pi-hole (the paper saw eight of these among the 49 CPE interceptors).

    Owners who filter on purpose also stop the escape hatches — but by
    *blocklist*, not by port: sessions dialing the canonical public
    resolvers are blocked on every encrypted transport, while anything
    off-list (a private DoH endpoint, say) passes untouched.
    """
    return FirmwareProfile(
        model="pi-hole",
        software=pi_hole(version),
        intercepts_v4=True,
        notes="owner-installed ad blocking",
        encrypted_dns=EncryptedDnsPolicy(
            dot=EncryptedAction.BLOCK,
            doh=EncryptedAction.BLOCK,
            doq=EncryptedAction.BLOCK,
            sni_targets=PUBLIC_RESOLVER_SNIS,
        ),
    )


#: Interceptor software mix matching Table 5 of the paper: 23 dnsmasq,
#: 8 pi-hole, 6 unbound, 2 BIND-RedHat, and 1 each of ten oddities = 49.
TABLE5_SOFTWARE_MIX: tuple[tuple[ServerSoftware, int], ...] = (
    (dnsmasq("2.78"), 8),
    (dnsmasq("2.80"), 8),
    (dnsmasq("2.85"), 7),
    (pi_hole("2.81"), 5),
    (pi_hole("2.84"), 3),
    (unbound("1.9.0"), 4),
    (unbound("1.13.1"), 2),
    (bind_redhat(), 2),
    (powerdns(), 1),
    (q9(), 1),
    (bind_vanilla("9.16.15"), 1),
    (bind_debian(), 1),
    (windows_ns(), 1),
    (microsoft(), 1),
    (quirky("new"), 1),
    (quirky("unknown"), 1),
    (quirky("none"), 1),
    (quirky("huuh?"), 1),
)
