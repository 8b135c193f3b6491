"""Encrypted-transport interception detection (DoT, DoH, DoQ).

The paper's second §6 future-work item:

"While our approach should theoretically detect DNS interception in DNS
over TLS (DoT), we did not evaluate it on RIPE Atlas. [...] the
'opportunistic privacy profile' of DoT disables client certificate
validation, so this configuration could allow interception."

The argument is transport-agnostic: any encrypted transport whose
session pins the resolver's certificate identity turns interception
into a *visible* event, and any opportunistic deployment re-opens the
silent-interception window. This module therefore runs the Step-1
location-query check over an arbitrary encrypted transport
(``"dot"``, ``"doh"``, ``"doq"`` — the keys of
:data:`repro.atlas.transport.ENCRYPTED_TRANSPORTS`) in both privacy
profiles and classifies the outcome:

- ``NOT_INTERCEPTED`` — standard-format answer from a session whose
  certificate matches the target resolver;
- ``INTERCEPTED`` — an answer arrived but the session is compromised:
  either the content is non-standard, or the certificate identity is
  foreign and the opportunistic client accepted it anyway. The latter
  covers the *downgrade* middleboxes that relay genuine answer content
  under their own certificate — standard bytes, wrong identity, still
  intercepted;
- ``HIJACK_DEFEATED`` — strict profile only: bytes arrived but the
  certificate identity was wrong, so the client rejected the session.
  Interception was *attempted and blocked* — the detection signal the
  strict profile gives for free;
- ``NO_RESPONSE`` — nothing came back (the port is filtered or the
  session was dropped).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.atlas.measurement import (
    EncryptedExchangeResult,
    ExchangeStatus,
    MeasurementClient,
)
from repro.atlas.transport import ENCRYPTED_TRANSPORTS
from repro.resolvers.public import PROVIDER_TLS_IDENTITIES, Provider

from .catalog import LOCATION_QUERIES, PROVIDER_ORDER, provider_addresses
from .matchers import match_location_response


class EncryptedProfile(enum.Enum):
    """RFC 7858 / RFC 8310 privacy profiles (shared by DoH and DoQ)."""

    STRICT = "strict"
    OPPORTUNISTIC = "opportunistic"


class EncryptedStatus(enum.Enum):
    NOT_INTERCEPTED = "not-intercepted"
    INTERCEPTED = "intercepted"
    HIJACK_DEFEATED = "hijack-defeated"
    NO_RESPONSE = "no-response"


@dataclass
class EncryptedVerdict:
    """Step-1 outcome for one (provider, profile) over one transport."""

    provider: Provider
    profile: EncryptedProfile
    transport: str = "dot"
    exchange: Optional[EncryptedExchangeResult] = None

    @property
    def status(self) -> EncryptedStatus:
        exchange = self.exchange
        if exchange is None or exchange.status is ExchangeStatus.TIMEOUT:
            return EncryptedStatus.NO_RESPONSE
        if exchange.status is ExchangeStatus.IDENTITY_REJECTED:
            return EncryptedStatus.HIJACK_DEFEATED
        if exchange.response is None:
            return EncryptedStatus.NO_RESPONSE
        match = match_location_response(self.provider, exchange.response)
        if match.standard and exchange.identity_ok:
            return EncryptedStatus.NOT_INTERCEPTED
        return EncryptedStatus.INTERCEPTED


class EvasionOutcome(enum.Enum):
    """What happened when an intercepted probe retried over encryption.

    The evasion study runs the *opportunistic* profile on purpose: a
    strict stub turns every downgrade into a loud failure, which tells
    us nothing about what the interceptor would have done to the
    permissive clients that dominate real deployments.
    """

    #: The encrypted session reached the real resolver untouched.
    EVADED = "evaded"
    #: The session died (port filtered or dropped): encryption traded
    #: interception for an outage.
    BLOCKED = "blocked"
    #: An answer arrived, but from a terminated/relayed session — the
    #: silent failure mode the opportunistic profile permits.
    DOWNGRADED = "downgraded"


#: Aggregation priority: one downgraded provider taints the probe (the
#: stub silently trusts a middleman), one blocked provider merely
#: degrades it, and "evaded" requires every provider to escape.
EVASION_PRIORITY: tuple[EvasionOutcome, ...] = (
    EvasionOutcome.DOWNGRADED,
    EvasionOutcome.BLOCKED,
    EvasionOutcome.EVADED,
)


def evasion_outcome_of(verdict: EncryptedVerdict) -> EvasionOutcome:
    """Collapse one opportunistic-profile verdict to its evasion outcome."""
    status = verdict.status
    if status is EncryptedStatus.NOT_INTERCEPTED:
        return EvasionOutcome.EVADED
    if status is EncryptedStatus.INTERCEPTED:
        return EvasionOutcome.DOWNGRADED
    # NO_RESPONSE, plus HIJACK_DEFEATED should a strict verdict ever be
    # fed in: the session did not produce a usable answer.
    return EvasionOutcome.BLOCKED


def probe_encrypted_provider(
    client: MeasurementClient,
    provider: Provider,
    transport: str = "dot",
    profile: EncryptedProfile = EncryptedProfile.STRICT,
    family: int = 4,
    rng: Optional[random.Random] = None,
) -> EncryptedVerdict:
    """Issue the provider's location query over one encrypted transport.

    The study's evasion axis calls this once per provider from
    :class:`repro.core.classifier.InterceptionLocator`.
    """
    if transport not in ENCRYPTED_TRANSPORTS:
        raise ValueError(
            f"transport must be one of {ENCRYPTED_TRANSPORTS}, got {transport!r}"
        )
    spec = LOCATION_QUERIES[provider]
    address = provider_addresses(provider, family)[0]
    exchange = client.resolve(
        spec.build_query(rng=rng),
        address,
        transport=transport,
        expected_identity=PROVIDER_TLS_IDENTITIES[provider],
        strict=profile is EncryptedProfile.STRICT,
    )
    assert isinstance(exchange, EncryptedExchangeResult)
    return EncryptedVerdict(
        provider=provider, profile=profile, transport=transport, exchange=exchange
    )


@dataclass
class EncryptedReport:
    """Both-profile verdicts across all providers, one transport."""

    transport: str = "dot"
    verdicts: dict[tuple[Provider, EncryptedProfile], EncryptedVerdict] = field(
        default_factory=dict
    )

    def status_of(
        self, provider: Provider, profile: EncryptedProfile
    ) -> EncryptedStatus:
        verdict = self.verdicts.get((provider, profile))
        return verdict.status if verdict else EncryptedStatus.NO_RESPONSE

    def any_intercepted(self) -> bool:
        return any(
            v.status is EncryptedStatus.INTERCEPTED for v in self.verdicts.values()
        )

    def any_hijack_defeated(self) -> bool:
        return any(
            v.status is EncryptedStatus.HIJACK_DEFEATED
            for v in self.verdicts.values()
        )


def probe_encrypted_all(
    client: MeasurementClient,
    transport: str = "dot",
    profiles: tuple[EncryptedProfile, ...] = (
        EncryptedProfile.STRICT,
        EncryptedProfile.OPPORTUNISTIC,
    ),
    family: int = 4,
    rng: Optional[random.Random] = None,
) -> EncryptedReport:
    report = EncryptedReport(transport=transport)
    for profile in profiles:
        for provider in PROVIDER_ORDER:
            report.verdicts[(provider, profile)] = probe_encrypted_provider(
                client,
                provider,
                transport=transport,
                profile=profile,
                family=family,
                rng=rng,
            )
    return report

