"""Step 1 — identifying query interception with location queries (§3.1).

For each public resolver (on both its primary and secondary addresses,
in each address family the probe supports) the detector issues the
resolver's location query and checks the answer against the standard
format. Any non-standard answer ⇒ the resolver is intercepted for this
probe. All-timeout ⇒ no data (timeouts are conservatively *not* treated
as interception).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.atlas.measurement import ExchangeResult, MeasurementClient
from repro.resolvers.public import Provider

from .catalog import LOCATION_QUERIES, PROVIDER_ORDER, provider_addresses
from .matchers import MatchResult, describe_response, match_location_response


class InterceptionStatus(enum.Enum):
    NOT_INTERCEPTED = "not-intercepted"
    INTERCEPTED = "intercepted"
    NO_RESPONSE = "no-response"


@dataclass(frozen=True)
class LocationProbe:
    """One location query to one service address."""

    provider: Provider
    family: int
    address: str
    exchange: ExchangeResult
    match: Optional[MatchResult]  # None when the exchange timed out

    @property
    def answered(self) -> bool:
        return self.match is not None

    @property
    def intercepted(self) -> bool:
        return self.match is not None and not self.match.standard

    def observed_text(self) -> str:
        return describe_response(self.exchange.response)


@dataclass
class ProviderVerdict:
    """Step-1 verdict for one (provider, family) pair."""

    provider: Provider
    family: int
    probes: list[LocationProbe] = field(default_factory=list)

    @property
    def status(self) -> InterceptionStatus:
        if any(p.intercepted for p in self.probes):
            return InterceptionStatus.INTERCEPTED
        if any(p.answered for p in self.probes):
            return InterceptionStatus.NOT_INTERCEPTED
        return InterceptionStatus.NO_RESPONSE

    @property
    def intercepted(self) -> bool:
        return self.status is InterceptionStatus.INTERCEPTED

    @property
    def responded(self) -> bool:
        return self.status is not InterceptionStatus.NO_RESPONSE


def detect_provider(
    client: MeasurementClient,
    provider: Provider,
    family: int = 4,
    rng: Optional[random.Random] = None,
    both_addresses: bool = True,
) -> ProviderVerdict:
    """Run Step 1 for one provider in one address family."""
    spec = LOCATION_QUERIES[provider]
    verdict = ProviderVerdict(provider=provider, family=family)
    addresses = provider_addresses(provider, family)
    if not both_addresses:
        addresses = addresses[:1]
    for address in addresses:
        query = spec.build_query(rng=rng)
        exchange = client.exchange(address, query)
        match = (
            match_location_response(provider, exchange.response)
            if exchange.response is not None
            else None
        )
        verdict.probes.append(
            LocationProbe(
                provider=provider,
                family=family,
                address=address,
                exchange=exchange,
                match=match,
            )
        )
    return verdict


@dataclass
class DetectionReport:
    """Step-1 verdicts for every (provider, family) a probe supports."""

    verdicts: dict[tuple[Provider, int], ProviderVerdict] = field(default_factory=dict)

    def verdict(self, provider: Provider, family: int) -> Optional[ProviderVerdict]:
        return self.verdicts.get((provider, family))

    def intercepted_providers(self, family: int) -> list[Provider]:
        return [
            provider
            for provider in PROVIDER_ORDER
            if (v := self.verdicts.get((provider, family))) is not None
            and v.intercepted
        ]

    def any_intercepted(self, family: Optional[int] = None) -> bool:
        return any(
            v.intercepted
            for (_, fam), v in self.verdicts.items()
            if family is None or fam == family
        )

    def all_intercepted(self, family: int) -> bool:
        """True when all four providers are intercepted (Table 4 last row)."""
        verdicts = [
            self.verdicts.get((provider, family)) for provider in PROVIDER_ORDER
        ]
        return all(v is not None and v.intercepted for v in verdicts)

    def responded_all(self, family: int) -> bool:
        verdicts = [
            self.verdicts.get((provider, family)) for provider in PROVIDER_ORDER
        ]
        return all(v is not None and v.responded for v in verdicts)


def detect_all(
    client: MeasurementClient,
    families: tuple[int, ...] = (4,),
    rng: Optional[random.Random] = None,
    both_addresses: bool = True,
    skip: Optional[set[tuple[Provider, int]]] = None,
) -> DetectionReport:
    """Run Step 1 across all providers and the given families.

    ``skip`` marks (provider, family) pairs for which the measurement is
    not attempted at all — the fleet study uses it to model probes that
    never responded to a given provider's measurement campaign.
    """
    report = DetectionReport()
    for family in families:
        if not client.can_reach_family(family):
            continue
        for provider in PROVIDER_ORDER:
            if skip and (provider, family) in skip:
                continue
            report.verdicts[(provider, family)] = detect_provider(
                client, provider, family, rng=rng, both_addresses=both_addresses
            )
    return report
