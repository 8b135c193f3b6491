"""Countries and organizations for the synthetic probe fleet.

RIPE Atlas is heavily biased toward Europe and North America and toward
technically inclined volunteers ("geek bias") — the paper is explicit
that its prevalence numbers inherit this bias (§4, §6). The synthetic
fleet reproduces that bias: organization weights approximate the real
platform's probe distribution circa 2021, and interception weights are
tuned so the *shape* of Figures 3-4 (Comcast on top, a mix of US/EU
ISPs, a Russian and Turkish presence) emerges from sampling.

Weights are relative, not probabilities; the population generator
normalises them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Organization:
    """One access network: name (as reports show it), ASN, country."""

    name: str
    asn: int
    country: str  # ISO 3166-1 alpha-2
    probe_weight: float  # share of the fleet hosted in this network
    intercept_weight: float  # share of *interception* observed here
    v4_prefix: str
    v6_prefix: str
    deploys_xb6: bool = False  # ISPs renting RDK-B gateways (§5)


#: The catalog the fleet is sampled from. Prefixes are documentation-free
#: public space assigned uniquely per organization so probe addresses
#: never collide across scenarios.
ORGANIZATIONS: tuple[Organization, ...] = (
    # -- North America ----------------------------------------------------
    Organization("Comcast", 7922, "US", 7.0, 22.0, "24.0.0.0/12", "2601::/24", True),
    Organization("Charter", 20115, "US", 2.6, 3.0, "24.16.0.0/13", "2600:6c00::/26"),
    Organization("AT&T", 7018, "US", 2.2, 2.0, "12.0.0.0/12", "2600:1700::/28"),
    Organization("Verizon", 701, "US", 1.8, 1.0, "71.96.0.0/12", "2600:4000::/26"),
    Organization("Cox", 22773, "US", 1.2, 1.5, "68.0.0.0/13", "2600:8800::/28"),
    Organization("Shaw", 6327, "CA", 1.0, 3.5, "64.59.0.0/16", "2604:3d00::/24", True),
    Organization("Rogers", 812, "CA", 0.9, 1.0, "99.224.0.0/12", "2607:fea8::/32"),
    Organization("Bell Canada", 577, "CA", 0.8, 0.5, "70.48.0.0/13", "2607:f2c0::/32"),
    # -- Europe ------------------------------------------------------------
    Organization("Deutsche Telekom", 3320, "DE", 5.5, 2.5, "79.192.0.0/10", "2003::/19"),
    Organization("Vodafone DE", 3209, "DE", 3.0, 4.0, "88.64.0.0/11", "2a02:810::/29", True),
    Organization("1&1 Versatel", 8881, "DE", 1.6, 0.5, "89.244.0.0/14", "2a02:2450::/29"),
    Organization("Orange", 3215, "FR", 3.2, 1.5, "90.0.0.0/9", "2a01:c000::/26"),
    Organization("Free SAS", 12322, "FR", 2.8, 2.0, "82.224.0.0/11", "2a01:e000::/26"),
    Organization("SFR", 15557, "FR", 1.4, 0.8, "77.192.0.0/11", "2a02:8400::/25"),
    Organization("BT", 2856, "GB", 2.4, 1.2, "81.128.0.0/11", "2a00:2300::/25"),
    Organization("Sky UK", 5607, "GB", 1.8, 1.5, "90.192.0.0/11", "2a02:c7f::/32"),
    Organization("Virgin Media", 5089, "GB", 1.7, 2.8, "81.96.0.0/12", "2a02:8000::/27", True),
    Organization("Ziggo", 33915, "NL", 1.9, 2.2, "84.24.0.0/13", "2001:1c00::/23", True),
    Organization("KPN", 1136, "NL", 1.7, 0.8, "77.160.0.0/11", "2a02:a440::/26"),
    Organization("XS4ALL", 3265, "NL", 1.0, 0.3, "82.92.0.0/14", "2a02:a460::/27"),
    Organization("Telia", 3301, "SE", 1.4, 0.7, "81.224.0.0/12", "2a00:1d80::/26"),
    Organization("Telenor", 2119, "NO", 1.0, 0.5, "84.208.0.0/13", "2a01:79c0::/27"),
    Organization("Swisscom", 3303, "CH", 1.5, 0.6, "84.72.0.0/13", "2a02:120::/27"),
    Organization("Proximus", 5432, "BE", 1.0, 0.5, "81.240.0.0/12", "2a02:a000::/24"),
    Organization("Telefonica ES", 3352, "ES", 1.3, 1.0, "80.24.0.0/13", "2a02:9000::/24"),
    Organization("Telecom Italia", 3269, "IT", 1.4, 1.2, "79.0.0.0/11", "2a00:1620::/27"),
    Organization("Orange Polska", 5617, "PL", 1.2, 2.0, "83.0.0.0/11", "2a00:f40::/29"),
    Organization("UPC Polska", 6830, "PL", 0.9, 2.5, "89.64.0.0/13", "2a02:a310::/28", True),
    Organization("Vodafone CZ", 16019, "CZ", 0.8, 0.6, "89.102.0.0/15", "2a00:1028::/29"),
    Organization("Magyar Telekom", 5483, "HU", 0.7, 0.6, "84.0.0.0/13", "2001:4c48::/29"),
    Organization("A1 Austria", 8447, "AT", 0.9, 0.5, "77.116.0.0/14", "2001:870::/28"),
    # -- Eastern Europe / Middle East ------------------------------------
    Organization("Rostelecom", 12389, "RU", 1.3, 4.5, "87.224.0.0/11", "2a1f:d8c0::/29"),
    Organization("ER-Telecom", 31483, "RU", 0.7, 2.8, "94.24.0.0/13", "2a02:2698::/29"),
    Organization("MTS", 8359, "RU", 0.6, 1.8, "95.24.0.0/13", "2a00:1fa0::/27"),
    Organization("Turk Telekom", 9121, "TR", 0.7, 3.8, "88.224.0.0/11", "2a01:358::/29"),
    Organization("Turkcell", 16135, "TR", 0.4, 1.6, "85.96.0.0/12", "2a02:e0::/29"),
    Organization("Bezeq", 8551, "IL", 0.5, 1.2, "79.176.0.0/13", "2a02:6680::/29"),
    # -- Asia-Pacific / other ----------------------------------------------
    Organization("NTT", 4713, "JP", 0.8, 0.8, "60.32.0.0/12", "2400:4050::/28"),
    Organization("Telstra", 1221, "AU", 0.7, 1.0, "58.160.0.0/12", "2403:5800::/28"),
    Organization("Vodafone NZ", 9500, "NZ", 0.4, 0.9, "121.98.0.0/15", "2407:7000::/27", True),
    Organization("Airtel", 24560, "IN", 0.5, 1.5, "122.160.0.0/12", "2401:4900::/27"),
    Organization("China Unicom", 4837, "CN", 0.3, 2.2, "112.224.0.0/11", "2408:8000::/20"),
    Organization("Vivo", 26599, "BR", 0.5, 1.4, "177.0.0.0/12", "2804:14c::/31"),
    Organization("Claro BR", 28573, "BR", 0.4, 1.0, "177.32.0.0/12", "2804:14d::/32"),
    Organization("MWEB", 10474, "ZA", 0.3, 0.8, "105.224.0.0/12", "2c0f:f4c0::/32"),
)


def organization_by_name(name: str) -> Organization:
    for org in ORGANIZATIONS:
        if org.name == name:
            return org
    raise KeyError(name)


def as_identity(asn: "int | None", label: str) -> str:
    """Certificate identity for an operator-run node inside an AS.

    Every addressable node in the simulation presents a TLS identity
    derived from its operator: ``as_identity(7922, "dot.isp-resolver")``
    -> ``"dot.isp-resolver.as7922.example.net"``. Nodes without an AS
    (hosted/transit infrastructure) fall back to the bare label under
    ``example.net``.
    """
    if asn is None:
        return f"{label}.example.net"
    return f"{label}.as{asn}.example.net"
