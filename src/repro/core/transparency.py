"""Transparency check — is the interceptor resolving correctly? (§4.1.2).

An interceptor that intends to stay invisible must resolve ordinary
queries correctly. The check sends ``whoami.akamai.com`` to each
intercepted resolver:

- a **valid answer** whose address is not the target resolver's egress
  confirms interception *and* shows the query was still resolved — the
  interception is *transparent*;
- a **DNS error status** (SERVFAIL / NOTIMP / REFUSED) is a deliberate
  answer from the alternate resolver — the interceptor *blocks* that
  public resolver ("Status Modified");
- a probe with some providers transparent and some modified is "Both".
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.atlas.measurement import ExchangeResult, MeasurementClient
from repro.dnswire import QType, RCode, make_query
from repro.resolvers.directory import AKAMAI_WHOAMI
from repro.resolvers.public import PROVIDER_SPECS, Provider

from .catalog import provider_addresses


class ProviderTransparency(enum.Enum):
    TRANSPARENT = "transparent"
    STATUS_MODIFIED = "status-modified"
    NO_RESPONSE = "no-response"


class ProbeTransparency(enum.Enum):
    """Figure 3's categories, aggregated over a probe's providers."""

    TRANSPARENT = "Transparent"
    STATUS_MODIFIED = "Status Modified"
    BOTH = "Both"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class WhoamiObservation:
    """One whoami exchange toward an intercepted provider."""

    provider: Provider
    address: str
    exchange: ExchangeResult

    @property
    def classification(self) -> ProviderTransparency:
        response = self.exchange.response
        if response is None:
            return ProviderTransparency.NO_RESPONSE
        if response.rcode != RCode.NOERROR:
            return ProviderTransparency.STATUS_MODIFIED
        return ProviderTransparency.TRANSPARENT

    @property
    def answer_address(self) -> Optional[str]:
        response = self.exchange.response
        if response is None:
            return None
        addresses = response.a_addresses() + response.aaaa_addresses()
        return addresses[0] if addresses else None

    @property
    def confirms_interception(self) -> bool:
        """Valid answer from a non-target egress ⇒ interception confirmed."""
        address = self.answer_address
        if address is None:
            return False
        return not PROVIDER_SPECS[self.provider].owns_egress(address)


@dataclass
class TransparencyResult:
    """Whoami observations for one probe's intercepted providers."""

    observations: list[WhoamiObservation] = field(default_factory=list)

    @property
    def classification(self) -> ProbeTransparency:
        kinds = {
            obs.classification
            for obs in self.observations
            if obs.classification is not ProviderTransparency.NO_RESPONSE
        }
        if not kinds:
            return ProbeTransparency.UNKNOWN
        if kinds == {ProviderTransparency.TRANSPARENT}:
            return ProbeTransparency.TRANSPARENT
        if kinds == {ProviderTransparency.STATUS_MODIFIED}:
            return ProbeTransparency.STATUS_MODIFIED
        return ProbeTransparency.BOTH


def check_transparency(
    client: MeasurementClient,
    intercepted_providers: list[Provider],
    family: int = 4,
    rng: Optional[random.Random] = None,
) -> TransparencyResult:
    """Send whoami.akamai.com to each intercepted provider."""
    result = TransparencyResult()
    qtype = QType.A if family == 4 else QType.AAAA
    for provider in intercepted_providers:
        address = provider_addresses(provider, family)[0]
        query = make_query(AKAMAI_WHOAMI, qtype, rng=rng)
        exchange = client.exchange(address, query)
        result.observations.append(
            WhoamiObservation(provider=provider, address=address, exchange=exchange)
        )
    return result
