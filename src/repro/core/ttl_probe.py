"""TTL-based interceptor localisation — the paper's §6 future work.

The authors note that "techniques based on increasing the TTL of the IP
header have the potential to identify which hop intercepted a query",
but could not run the experiment (VPNGate rewrote TTLs, RIPE Atlas
cannot set them). The simulator honours TTL and ICMP semantics, so the
experiment runs here.

Method: send the same (location) query with TTL = 1, 2, 3, ... At each
TTL one of three things happens:

- **ICMP Time Exceeded** from some router R: hop ``ttl`` is R, and the
  interceptor is further out;
- **a DNS answer**: some device within ``ttl`` hops took the query off
  the wire. The *first* answering TTL upper-bounds the interceptor's
  hop distance; in particular an answer at TTL=1 convicts the CPE
  (Linux DNAT rewrites the destination before the TTL check, so even a
  one-hop packet reaches the hijacking forwarder);
- **timeout**: the query died quietly (bogon filtering, rate limits).

Caveat, faithfully modelled: for a middlebox at hop *m* that DNATs to a
resolver further away, answers only start once the TTL also covers the
middlebox→resolver leg, so the first-answer TTL can exceed *m*. The
estimate is therefore an upper bound, tightened by the last ICMP hop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.atlas.measurement import MeasurementClient
from repro.net.packet import IcmpType
from repro.resolvers.public import Provider

from .catalog import LOCATION_QUERIES, provider_addresses
from .matchers import match_location_response

#: Deep enough for any of our topologies, shallow enough to stay fast.
DEFAULT_MAX_TTL = 12


@dataclass(frozen=True)
class TtlStep:
    """Outcome at one TTL value."""

    ttl: int
    outcome: str  # "icmp" | "answer" | "timeout"
    reporter: Optional[str] = None  # ICMP reporter address
    answer_standard: Optional[bool] = None  # for "answer" outcomes

    @property
    def got_answer(self) -> bool:
        return self.outcome == "answer"


@dataclass
class TtlProbeResult:
    """The full sweep plus derived localisation."""

    provider: Provider
    family: int
    steps: list[TtlStep] = field(default_factory=list)

    @property
    def first_answer_ttl(self) -> Optional[int]:
        for step in self.steps:
            if step.got_answer:
                return step.ttl
        return None

    @property
    def first_nonstandard_ttl(self) -> Optional[int]:
        for step in self.steps:
            if step.got_answer and step.answer_standard is False:
                return step.ttl
        return None

    @property
    def icmp_path(self) -> list[tuple[int, str]]:
        """(ttl, reporter) pairs — the traceroute of the DNS path."""
        return [
            (step.ttl, step.reporter)
            for step in self.steps
            if step.outcome == "icmp" and step.reporter is not None
        ]

    @property
    def interceptor_max_hop(self) -> Optional[int]:
        """Upper bound on the intercepting hop.

        The first TTL that elicits a non-standard DNS answer. For
        proxy-style interceptors (those answering locally, e.g. BLOCK
        middleboxes and DNAT CPEs) this is the interceptor's *exact*
        hop; for redirect-style interceptors the answer additionally has
        to traverse the interceptor→alternate-resolver leg, so the bound
        is loose by that leg's length.

        Note that ICMP reporters seen *past* the interceptor belong to
        the redirected path, so they cannot tighten a lower bound — a
        subtlety the §6 sketch glosses over and the simulation surfaces.
        """
        return self.first_nonstandard_ttl

    @property
    def cpe_implicated(self) -> bool:
        """An answer at TTL=1 can only come from the first hop: the CPE."""
        return self.first_nonstandard_ttl == 1

    @property
    def observed_path_length(self) -> int:
        """Number of distinct ICMP-reporting hops seen (a traceroute)."""
        return len({reporter for _ttl, reporter in self.icmp_path})

    def describe(self) -> str:
        lines = [f"TTL sweep toward {self.provider.value} (IPv{self.family}):"]
        for step in self.steps:
            if step.outcome == "icmp":
                lines.append(f"  ttl={step.ttl:<2d} ICMP time-exceeded from {step.reporter}")
            elif step.outcome == "answer":
                kind = "standard" if step.answer_standard else "NON-STANDARD"
                lines.append(f"  ttl={step.ttl:<2d} DNS answer ({kind})")
            else:
                lines.append(f"  ttl={step.ttl:<2d} timeout")
        if self.interceptor_max_hop is not None:
            lines.append(
                f"  => interceptor within the first {self.interceptor_max_hop} hop(s)"
                + ("  (CPE)" if self.cpe_implicated else "")
            )
        return "\n".join(lines)


def ttl_probe(
    client: MeasurementClient,
    provider: Provider,
    family: int = 4,
    max_ttl: int = DEFAULT_MAX_TTL,
    rng: Optional[random.Random] = None,
    stop_at_answer: bool = True,
) -> TtlProbeResult:
    """Sweep TTLs toward ``provider``'s primary address.

    Requires the ability to set the IP TTL — the one capability beyond
    "can send DNS queries" that the paper's base technique avoids (§6
    notes it needs root/SUID on most systems).
    """
    spec = LOCATION_QUERIES[provider]
    address = provider_addresses(provider, family)[0]
    result = TtlProbeResult(provider=provider, family=family)
    for ttl in range(1, max_ttl + 1):
        query = spec.build_query(rng=rng)
        exchange = client.exchange(address, query, ttl=ttl)
        if exchange.response is not None:
            match = match_location_response(provider, exchange.response)
            result.steps.append(
                TtlStep(ttl=ttl, outcome="answer", answer_standard=match.standard)
            )
            if stop_at_answer:
                break
            continue
        reporter: Optional[str] = None
        for icmp in exchange.icmp:
            if icmp.icmp_type is IcmpType.TIME_EXCEEDED:
                reporter = str(icmp.reporter)
                break
        if reporter is not None:
            result.steps.append(TtlStep(ttl=ttl, outcome="icmp", reporter=reporter))
        else:
            result.steps.append(TtlStep(ttl=ttl, outcome="timeout"))
    return result
