"""The global name directory: authoritative data for the simulated Internet.

Recursive resolution (resolver -> root -> TLD -> authoritative) is not
what the paper measures, so the reproduction abstracts it: every
recursive resolver resolves through a shared :class:`NameDirectory` of
authoritative zones. The *client-to-resolver* path — where interception
happens — stays fully packet-level.

The directory supports dynamic zones, which is how the two oracles work:

- ``o-o.myaddr.l.google.com``  TXT -> the egress address of the resolver
  that asked (Google's location query, Table 1);
- ``whoami.akamai.com``  A/AAAA -> same, as an address record (the
  transparency check of §4.1.2).
"""

from __future__ import annotations

import ipaddress
from typing import Optional

from repro.dnswire import (
    DnsName,
    QClass,
    QType,
    RCode,
    ResourceRecord,
    Zone,
    a_record,
    aaaa_record,
    name,
    txt_record,
)
from repro.dnswire.zone import LookupResult

#: Domain names used throughout the reproduction.
GOOGLE_MYADDR = name("o-o.myaddr.l.google.com.")
AKAMAI_WHOAMI = name("whoami.akamai.com.")
OPENDNS_DEBUG = name("debug.opendns.com.")
#: "a generic domain we control" (§3.3) — the bogon-query probe name.
CONTROL_DOMAIN = name("probe.dns-interception-study.example.")


class NameDirectory:
    """Registry of authoritative zones with longest-suffix dispatch."""

    def __init__(self) -> None:
        self._zones: dict[DnsName, Zone] = {}

    def add_zone(self, zone: Zone) -> Zone:
        self._zones[zone.origin] = zone
        return zone

    def zone_for(self, qname: "str | DnsName") -> Optional[Zone]:
        """The most specific zone containing ``qname``."""
        qname = name(qname)
        best: Optional[Zone] = None
        for origin, zone in self._zones.items():
            if qname.is_subdomain_of(origin):
                if best is None or len(origin) > len(best.origin):
                    best = zone
        return best

    def resolve(
        self,
        qname: "str | DnsName",
        qtype: int,
        qclass: int = QClass.IN,
        resolver_egress: str = "",
    ) -> LookupResult:
        """Resolve as a recursive resolver with egress ``resolver_egress`` would.

        Names under no registered zone resolve to NXDOMAIN (there is no
        fallback to the real Internet).
        """
        zone = self.zone_for(qname)
        if zone is None:
            return LookupResult(rcode=RCode.NXDOMAIN)
        return zone.lookup(qname, qtype, qclass, source=resolver_egress)


def build_google_zone() -> Zone:
    """google.com with the dynamic ``o-o.myaddr`` TXT responder."""
    zone = Zone("google.com.")

    def myaddr(_qname: DnsName, source: str) -> list[ResourceRecord]:
        return [txt_record(GOOGLE_MYADDR, source or "0.0.0.0", ttl=60)]

    zone.add_dynamic(GOOGLE_MYADDR, QType.TXT, myaddr)
    zone.add(a_record("www.google.com.", "142.250.72.196"))
    return zone


def build_akamai_zone() -> Zone:
    """akamai.com with the dynamic whoami responder (Korf & Strom, 2018)."""
    zone = Zone("akamai.com.")

    def whoami_a(_qname: DnsName, source: str) -> list[ResourceRecord]:
        try:
            address = ipaddress.ip_address(source)
        except ValueError:
            return []
        if address.version != 4:
            return []
        return [a_record(AKAMAI_WHOAMI, str(address), ttl=60)]

    def whoami_aaaa(_qname: DnsName, source: str) -> list[ResourceRecord]:
        try:
            address = ipaddress.ip_address(source)
        except ValueError:
            return []
        if address.version != 6:
            return []
        return [aaaa_record(AKAMAI_WHOAMI, str(address), ttl=60)]

    zone.add_dynamic(AKAMAI_WHOAMI, QType.A, whoami_a)
    zone.add_dynamic(AKAMAI_WHOAMI, QType.AAAA, whoami_aaaa)
    zone.add(a_record("www.akamai.com.", "104.103.99.18"))
    return zone


def build_opendns_zone() -> Zone:
    """opendns.com as the *rest of the world* sees it.

    ``debug.opendns.com`` only yields diagnostic TXT records when asked
    through OpenDNS's own resolvers (which special-case it); resolved
    anywhere else it is an empty NODATA answer. Registering the bare name
    with no TXT records produces exactly that.
    """
    zone = Zone("opendns.com.")
    zone.add(a_record("www.opendns.com.", "146.112.62.105"))
    # debug.opendns.com exists (so: NODATA, not NXDOMAIN) but has no TXT.
    zone.add(a_record(OPENDNS_DEBUG, "146.112.62.106"))
    return zone


def build_control_zone() -> Zone:
    """The experimenter-controlled domain used for bogon queries (§3.3)."""
    zone = Zone("dns-interception-study.example.")
    zone.add(a_record(CONTROL_DOMAIN, "198.51.100.200"))
    zone.add(aaaa_record(CONTROL_DOMAIN, "2001:db8:ffff::200"))
    zone.add(txt_record(CONTROL_DOMAIN, "bogon-probe", ttl=60))
    return zone


def build_example_zone() -> Zone:
    """example.com, the generic resolvable workload domain."""
    zone = Zone("example.com.")
    zone.add(a_record("example.com.", "93.184.216.34"))
    zone.add(a_record("www.example.com.", "93.184.216.34"))
    zone.add(aaaa_record("www.example.com.", "2606:2800:220:1:248:1893:25c8:1946"))
    zone.add(txt_record("example.com.", "v=spf1 -all"))
    return zone


def build_provider_name_zones() -> list[Zone]:
    """One zone per public-resolver TLS name (``dns.google.`` ...).

    The certificate cross-validation detector resolves each provider's
    own name as its canary and then "connects" to the answers; these
    zones make the canaries resolvable, answering with the provider's
    published service addresses. Longest-suffix dispatch keeps
    ``dns.opendns.com.`` ahead of the broader ``opendns.com.`` zone.
    """
    # Late import: resolvers.public imports this module at load time.
    from repro.resolvers.public import PROVIDER_SPECS, PROVIDER_TLS_IDENTITIES

    zones = []
    for provider, spec in PROVIDER_SPECS.items():
        origin = PROVIDER_TLS_IDENTITIES[provider] + "."
        zone = Zone(origin)
        for address in spec.v4_addresses:
            zone.add(a_record(origin, address))
        for address in spec.v6_addresses:
            zone.add(aaaa_record(origin, address))
        zones.append(zone)
    return zones


def build_default_directory() -> NameDirectory:
    """A directory with every zone the methodology needs."""
    directory = NameDirectory()
    directory.add_zone(build_google_zone())
    directory.add_zone(build_akamai_zone())
    directory.add_zone(build_opendns_zone())
    directory.add_zone(build_control_zone())
    directory.add_zone(build_example_zone())
    for zone in build_provider_name_zones():
        directory.add_zone(zone)
    return directory
