"""TLS-certificate cross-validation of DNS answers (the CERTainty signal).

The three-step locator judges responses by *content* (location queries,
CHAOS TXT, format matching). This module implements the orthogonal
signal of Pearce et al.'s CERTainty: resolve a name whose TLS identity
is known, then "connect" to every returned address over the simulated
network and compare the certificate the endpoint presents against the
identity expected for the queried name. A middlebox that relays genuine
answer bytes still terminates the TLS session under its own certificate,
so the fetch exposes exactly the interception class the content
heuristics score clean.

Certificates are the identity strings of :mod:`repro.net.stream`
(``pack_identity``): every addressable node that speaks an encrypted
transport presents one — public resolvers present their provider names,
ISP resolvers a per-AS name from :func:`repro.atlas.geo.as_identity`,
interceptor middleboxes and CPE forwarders their own foreign names.

The detector degrades, never guesses (the PR-3 contract): a cert fetch
that times out — a firmware firewalling port 853, chaos-profile loss —
yields ``INCONCLUSIVE``, not ``NOT_INTERCEPTED``.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.atlas.measurement import (
    EncryptedExchangeResult,
    ExchangeResult,
    ExchangeStatus,
    MeasurementClient,
)
from repro.dnswire import QType, RCode, make_query, name
from repro.resolvers.public import (
    PROVIDER_SPECS,
    PROVIDER_TLS_IDENTITIES,
    Provider,
)

from .catalog import PROVIDER_ORDER

#: A name that provably does not exist under the experimenter-controlled
#: zone: any NOERROR answer carrying addresses for it is NXDOMAIN
#: rewriting, whatever the certificates say.
NXDOMAIN_CANARY = name("nxdomain-canary.dns-interception-study.example.")

#: Per-provider cap on answered addresses that get a certificate fetch.
#: One suffices for every detection class — an interceptor terminates
#: sessions to all of a provider's service addresses uniformly — and it
#: keeps the cert pass within the bench's 2x budget over the heuristic.
MAX_FETCHES_PER_PROVIDER = 1


class CertVerdict(enum.Enum):
    """Aggregate cert-detector outcome for one probe.

    Shares the locator's spellings for the clean/degraded/no-data
    states so analysis code can consume either verdict through the
    common ``.value`` surface; ``INTERCEPTED`` is deliberately
    location-free — a certificate says *that* a middleman answered, not
    *where* it sits.
    """

    NOT_INTERCEPTED = "not-intercepted"
    INTERCEPTED = "intercepted"
    INCONCLUSIVE = "inconclusive"
    NO_DATA = "no-data"


class CertCause(enum.Enum):
    """Why the cert detector deviated from a clean bill of health.

    These are the disagreement classes of the agreement study, in
    aggregation priority order: a foreign certificate outranks an
    NXDOMAIN rewrite outranks a blocked fetch, and staleness is only
    reported when nothing worse happened.
    """

    #: An answered address presented a certificate for somebody else.
    FOREIGN_CERT = "foreign-cert"
    #: A known-nonexistent name resolved to addresses.
    NXDOMAIN_REWRITE = "nxdomain-rewrite"
    #: The canary resolved but every certificate fetch died (port 853
    #: firewalled, session dropped, chaos loss) — degrade, don't guess.
    FETCH_BLOCKED = "fetch-blocked"
    #: The canary came back unusable (error rcode / no address records),
    #: so there was nothing to fetch a certificate from.
    NO_USABLE_ANSWER = "no-usable-answer"
    #: The certificate matched but the address is no longer in the
    #: provider's published service set — a stale cached answer, benign.
    STALE_CACHE = "stale-cache"


@dataclass
class CertFetch:
    """One simulated TLS connection to an address a canary returned."""

    address: str
    expected_identity: str
    exchange: Optional[EncryptedExchangeResult] = None

    @property
    def observed_identity(self) -> Optional[str]:
        if self.exchange is None:
            return None
        return self.exchange.observed_identity

    @property
    def blocked(self) -> bool:
        """The connection never produced a certificate."""
        return (
            self.exchange is None
            or self.exchange.status is ExchangeStatus.TIMEOUT
            or self.exchange.observed_identity is None
        )

    @property
    def matched(self) -> bool:
        return (
            not self.blocked
            and self.exchange.observed_identity == self.expected_identity
        )


@dataclass
class CertObservation:
    """Canary resolution plus certificate fetches, one provider."""

    provider: Provider
    qname: str
    expected_identity: str
    #: Addresses the provider is known to serve at (staleness baseline).
    known_addresses: frozenset[str] = frozenset()
    canary: Optional[ExchangeResult] = None
    fetches: list[CertFetch] = field(default_factory=list)

    @property
    def answered(self) -> bool:
        return self.canary is not None and self.canary.response is not None

    @property
    def addresses(self) -> tuple[str, ...]:
        """Deduplicated, sorted A/AAAA answers from the canary."""
        if not self.answered:
            return ()
        seen = set()
        for record in self.canary.response.answers:
            if record.rdtype in (QType.A, QType.AAAA) and hasattr(
                record.rdata, "address"
            ):
                seen.add(str(record.rdata.address))
        return tuple(sorted(seen))

    @property
    def foreign(self) -> bool:
        return any(not f.blocked and not f.matched for f in self.fetches)

    @property
    def all_fetches_blocked(self) -> bool:
        return bool(self.fetches) and all(f.blocked for f in self.fetches)

    @property
    def stale(self) -> bool:
        """A matching certificate from an address outside the published
        service set: the answer is genuine but cached past its welcome."""
        return any(
            f.matched and f.address not in self.known_addresses
            for f in self.fetches
        )


@dataclass
class CertReport:
    """Everything the cert detector learned about one probe."""

    verdict: CertVerdict = CertVerdict.NO_DATA
    cause: Optional[CertCause] = None
    observations: list[CertObservation] = field(default_factory=list)
    #: One NXDOMAIN-canary exchange per probed provider destination: a
    #: single-resolver redirect only rewrites queries aimed at its
    #: target, so the canary must travel every path the fetches did.
    nxdomain_canaries: list[ExchangeResult] = field(default_factory=list)

    @property
    def nxdomain_rewritten(self) -> bool:
        """True when the known-nonexistent name resolved to addresses."""
        for exchange in self.nxdomain_canaries:
            if exchange.response is None:
                continue
            if exchange.rcode != int(RCode.NOERROR):
                continue
            if any(
                record.rdtype in (QType.A, QType.AAAA)
                for record in exchange.response.answers
            ):
                return True
        return False


def cert_fetch(
    client: MeasurementClient,
    address: str,
    expected_identity: str,
    transport: str = "dot",
    rng: Optional[random.Random] = None,
) -> CertFetch:
    """Connect to ``address`` and read the certificate it presents.

    The "connection" is an opportunistic-profile encrypted exchange: the
    client accepts whatever certificate arrives and the comparison
    happens here, not in the session layer. The dialed SNI is the
    expected identity — which is why SNI-filtering firmware (a pi-hole
    blocklisting the public-resolver names) blocks the fetch itself.
    """
    query = make_query(name(expected_identity + "."), QType.A, rng=rng)
    exchange = client.resolve(
        query,
        address,
        transport=transport,
        expected_identity=expected_identity,
        strict=False,
    )
    assert isinstance(exchange, EncryptedExchangeResult)
    return CertFetch(
        address=str(address),
        expected_identity=expected_identity,
        exchange=exchange,
    )


def _canary_addresses(spec, family: int) -> tuple[str, ...]:
    return spec.v4_addresses if family == 4 else spec.v6_addresses


def validate_certificates(
    client: MeasurementClient,
    family: int = 4,
    rng: Optional[random.Random] = None,
    skip: Optional[Iterable[tuple[Provider, int]]] = None,
    providers: tuple[Provider, ...] = PROVIDER_ORDER,
    fetch_transport: str = "dot",
) -> CertReport:
    """Run the certificate cross-validation pass for one probe.

    Per provider: resolve the provider's own TLS name (an A-record
    canary that traverses the same plaintext path the locator measures),
    then fetch the certificate of every returned address (capped at
    :data:`MAX_FETCHES_PER_PROVIDER`) and compare identities. An
    NXDOMAIN canary per probed destination checks for rewriting.
    ``skip`` matches the locator's convention: ``(provider, family)``
    pairs to leave out.
    """
    skip_set = set(skip or ())
    report = CertReport()
    qtype = QType.A if family == 4 else QType.AAAA
    canary_destinations: list[str] = []

    for provider in providers:
        if (provider, family) in skip_set:
            continue
        spec = PROVIDER_SPECS[provider]
        identity = PROVIDER_TLS_IDENTITIES[provider]
        service = _canary_addresses(spec, family)
        if not service:
            continue
        destination = service[0]
        canary_destinations.append(destination)
        observation = CertObservation(
            provider=provider,
            qname=identity + ".",
            expected_identity=identity,
            known_addresses=frozenset(service),
        )
        observation.canary = client.resolve(
            make_query(name(identity + "."), qtype, rng=rng),
            destination,
            transport="udp53",
        )
        for address in observation.addresses[:MAX_FETCHES_PER_PROVIDER]:
            observation.fetches.append(
                cert_fetch(
                    client,
                    address,
                    identity,
                    transport=fetch_transport,
                    rng=rng,
                )
            )
        report.observations.append(observation)

    # One NXDOMAIN canary per destination: a single-resolver interceptor
    # only rewrites queries aimed at its target address, so probing just
    # one provider would miss a monetising resolver behind the others.
    for destination in canary_destinations:
        report.nxdomain_canaries.append(
            client.resolve(
                make_query(NXDOMAIN_CANARY, qtype, rng=rng),
                destination,
                transport="udp53",
            )
        )

    report.verdict, report.cause = _aggregate(report)
    return report


def _aggregate(report: CertReport) -> tuple[CertVerdict, Optional[CertCause]]:
    """Collapse per-provider observations into one (verdict, cause)."""
    observations = report.observations
    answered = [o for o in observations if o.answered]
    if any(o.foreign for o in answered):
        return CertVerdict.INTERCEPTED, CertCause.FOREIGN_CERT
    if report.nxdomain_rewritten:
        return CertVerdict.INTERCEPTED, CertCause.NXDOMAIN_REWRITE
    if not answered:
        return CertVerdict.NO_DATA, None
    if any(o.all_fetches_blocked for o in answered):
        return CertVerdict.INCONCLUSIVE, CertCause.FETCH_BLOCKED
    if any(not o.fetches for o in answered):
        # Answered but nothing fetchable: error rcode or an empty
        # answer section — the validation never happened.
        return CertVerdict.INCONCLUSIVE, CertCause.NO_USABLE_ANSWER
    if any(o.stale for o in answered):
        return CertVerdict.NOT_INTERCEPTED, CertCause.STALE_CACHE
    return CertVerdict.NOT_INTERCEPTED, None
