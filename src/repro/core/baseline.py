"""The baseline: Liu et al.'s authoritative-side interception detection.

The paper's predecessor (USENIX Security 2018, [31]) measures interception
*prevalence* with a different instrument: the client resolves a unique
name under a domain the experimenter controls, and the experimenter's
**authoritative nameserver** records which resolver egress actually
asked. If the recorded egress does not belong to the target resolver's
organization, something intercepted the query.

This module implements that technique against the simulator so it can be
compared head-to-head with the paper's contribution:

- both approaches detect interception reliably;
- the baseline needs experimenter-side infrastructure (the authoritative
  log), while the paper's technique runs purely client-side;
- crucially, the baseline sees the *alternate resolver's egress* — which
  looks the same whether the hijacker was the CPE, an ISP middlebox, or
  a transit box. It measures prevalence, **not location** — exactly the
  gap the paper fills (§7: "Our work differs since we focus on where in
  the network interception is happening instead of its prevalence").
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Optional

from repro.atlas.measurement import MeasurementClient
from repro.dnswire import DnsName, QType, ResourceRecord, a_record, make_query, name
from repro.resolvers.directory import NameDirectory
from repro.resolvers.public import PROVIDER_SPECS, Provider

#: The experimenter-controlled delegation used for unique probe names.
CATCH_SUFFIX = name("catch.dns-interception-study.example.")
#: Address returned for every probe name (content is irrelevant).
CATCH_ANSWER = "198.51.100.201"


class BaselineStatus(enum.Enum):
    NOT_INTERCEPTED = "not-intercepted"
    INTERCEPTED = "intercepted"
    NO_RESPONSE = "no-response"


@dataclass(frozen=True)
class AuthoritativeObservation:
    """One line of the experimenter's authoritative query log."""

    qname: DnsName
    resolver_egress: str


@dataclass
class BaselineVerdict:
    """Outcome of one prevalence probe toward one provider."""

    provider: Provider
    qname: DnsName
    responded: bool
    observed_egress: Optional[str] = None

    @property
    def status(self) -> BaselineStatus:
        if not self.responded:
            return BaselineStatus.NO_RESPONSE
        if self.observed_egress is None:
            # Answer came back yet our authoritative never saw a query:
            # somebody forged it (cache or wildcard interceptor).
            return BaselineStatus.INTERCEPTED
        if PROVIDER_SPECS[self.provider].owns_egress(self.observed_egress):
            return BaselineStatus.NOT_INTERCEPTED
        return BaselineStatus.INTERCEPTED

    @property
    def intercepted(self) -> bool:
        return self.status is BaselineStatus.INTERCEPTED


class PrevalenceExperiment:
    """The Liu et al. instrument bound to one scenario's directory.

    The experimenter registers a catch-all delegation in their own zone;
    ``probe`` mints a unique name, has the vantage point resolve it via
    a target provider, then reads the authoritative log.
    """

    def __init__(self, directory: NameDirectory, seed: int = 0) -> None:
        self.directory = directory
        self.rng = random.Random(seed)
        self.log: list[AuthoritativeObservation] = []
        self._registered: set[DnsName] = set()
        zone = directory.zone_for(CATCH_SUFFIX)
        if zone is None:
            raise ValueError(
                "directory has no experimenter-controlled zone to register in"
            )
        self._zone = zone

    def mint_name(self, probe_id: int) -> DnsName:
        """A unique, never-cached name for one measurement."""
        nonce = self.rng.randrange(16**8)
        qname = name(f"p{probe_id}-{nonce:08x}").concatenate(CATCH_SUFFIX)
        self._register(qname)
        return qname

    def _register(self, qname: DnsName) -> None:
        if qname in self._registered:
            return
        self._registered.add(qname)

        def answer(asked: DnsName, source: str) -> "list[ResourceRecord]":
            self.log.append(
                AuthoritativeObservation(qname=asked, resolver_egress=source)
            )
            return [a_record(asked, CATCH_ANSWER, ttl=0)]

        self._zone.add_dynamic(qname, QType.A, answer)

    def egress_for(self, qname: DnsName) -> Optional[str]:
        for observation in reversed(self.log):
            if observation.qname == qname:
                return observation.resolver_egress
        return None

    # -- the probe -------------------------------------------------------

    def probe(
        self,
        client: MeasurementClient,
        provider: Provider,
        probe_id: int,
        family: int = 4,
    ) -> BaselineVerdict:
        """Run one prevalence measurement toward ``provider``."""
        from repro.core.catalog import provider_addresses

        qname = self.mint_name(probe_id)
        address = provider_addresses(provider, family)[0]
        query = make_query(qname, QType.A, rng=self.rng)
        exchange = client.exchange(address, query)
        return BaselineVerdict(
            provider=provider,
            qname=qname,
            responded=exchange.response is not None,
            observed_egress=self.egress_for(qname),
        )
