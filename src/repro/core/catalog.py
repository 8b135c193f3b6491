"""The location-query catalog — Table 1 of the paper.

Each public resolver implements its own *location query*: a debugging
query whose answer reveals which anycast site served it, in a format
that is consistent worldwide and hard for an interceptor to counterfeit.

===============  ==========  =========================  ==========================
Public resolver  Type        Location query             Example expected response
===============  ==========  =========================  ==========================
Cloudflare DNS   CHAOS TXT   id.server                  IAD
Google DNS       TXT         o-o.myaddr.l.google.com    172.253.226.35
Quad9            CHAOS TXT   id.server                  res100.iad.rrdns.pch.net
OpenDNS          TXT         debug.opendns.com          server m84.iad
===============  ==========  =========================  ==========================
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.dnswire import DnsName, Message, QClass, QType, make_query
from repro.dnswire.chaosnames import ID_SERVER
from repro.resolvers.directory import GOOGLE_MYADDR, OPENDNS_DEBUG
from repro.resolvers.public import PROVIDER_SPECS, Provider, ProviderSpec


@dataclass(frozen=True)
class LocationQuerySpec:
    """One row of Table 1."""

    provider: Provider
    qname: DnsName
    qtype: int
    qclass: int
    example_response: str

    @property
    def type_label(self) -> str:
        return "CHAOS TXT" if int(self.qclass) == int(QClass.CH) else "TXT"

    def build_query(
        self, msg_id: "int | None" = None, rng: "random.Random | None" = None
    ) -> Message:
        return make_query(
            self.qname, self.qtype, self.qclass, msg_id=msg_id, rng=rng
        )

    @property
    def resolver_spec(self) -> ProviderSpec:
        return PROVIDER_SPECS[self.provider]


LOCATION_QUERIES: dict[Provider, LocationQuerySpec] = {
    Provider.CLOUDFLARE: LocationQuerySpec(
        Provider.CLOUDFLARE, ID_SERVER, QType.TXT, QClass.CH, "IAD"
    ),
    Provider.GOOGLE: LocationQuerySpec(
        Provider.GOOGLE, GOOGLE_MYADDR, QType.TXT, QClass.IN, "172.253.226.35"
    ),
    Provider.QUAD9: LocationQuerySpec(
        Provider.QUAD9, ID_SERVER, QType.TXT, QClass.CH, "res100.iad.rrdns.pch.net"
    ),
    Provider.OPENDNS: LocationQuerySpec(
        Provider.OPENDNS, OPENDNS_DEBUG, QType.TXT, QClass.IN, "server m84.iad"
    ),
}

#: Provider ordering used in tables (matches the paper's row order).
PROVIDER_ORDER = (
    Provider.CLOUDFLARE,
    Provider.GOOGLE,
    Provider.QUAD9,
    Provider.OPENDNS,
)


def location_query_table() -> list[tuple[str, str, str, str]]:
    """Rows of Table 1: (resolver, type, query, example response)."""
    rows = []
    for provider in PROVIDER_ORDER:
        spec = LOCATION_QUERIES[provider]
        rows.append(
            (
                provider.value,
                spec.type_label,
                spec.qname.to_text().rstrip("."),
                spec.example_response,
            )
        )
    return rows


def provider_addresses(provider: Provider, family: int) -> tuple[str, ...]:
    """Primary and secondary service addresses for one family."""
    return PROVIDER_SPECS[provider].addresses_for_family(family)
