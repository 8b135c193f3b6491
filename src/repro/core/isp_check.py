"""Step 3 — is the interception inside the client's ISP? (§3.3).

Bogon addresses are unroutable: a DNS query addressed to one cannot
leave the AS it originated in (border and transit routers have no route
to, and filter, that space). So:

- **any answer** to a bogon query ⇒ something inside the AS intercepted
  it ⇒ the interceptor is *within the ISP*;
- **no answer** ⇒ undetermined: the interceptor may be beyond the ISP,
  or it may be an in-ISP interceptor that discards queries to
  unroutable destinations.

The check also compares the bogon answer with Step 2's resolver
observations: a matching answer corroborates that the *same* interceptor
handled both (as in the probe-11992 walk-through, where both returned
NOTIMP).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.atlas.measurement import ExchangeResult, MeasurementClient
from repro.dnswire import QType, make_query
from repro.dnswire.chaosnames import make_version_bind_query
from repro.net.addr import DEFAULT_BOGON_V4, DEFAULT_BOGON_V6, IPAddress, is_bogon
from repro.resolvers.directory import CONTROL_DOMAIN

from .matchers import describe_response


@dataclass(frozen=True)
class BogonProbe:
    """One query to a bogon destination."""

    destination: str
    kind: str  # "control-a" or "version-bind"
    exchange: ExchangeResult

    @property
    def answered(self) -> bool:
        return self.exchange.response is not None

    def observed_text(self) -> str:
        return describe_response(self.exchange.response)


@dataclass
class IspCheckResult:
    """Outcome of Step 3 for one probe and family."""

    family: int
    probes: list[BogonProbe] = field(default_factory=list)

    @property
    def answered(self) -> bool:
        return any(p.answered for p in self.probes)

    @property
    def within_isp(self) -> bool:
        """The paper's criterion: any response to an unroutable query."""
        return self.answered


def default_bogon(family: int) -> IPAddress:
    return DEFAULT_BOGON_V4 if family == 4 else DEFAULT_BOGON_V6


def check_isp(
    client: MeasurementClient,
    family: int = 4,
    bogon: "str | IPAddress | None" = None,
    rng: Optional[random.Random] = None,
    include_version_bind: bool = True,
) -> IspCheckResult:
    """Run Step 3: query the control domain (and version.bind) at a bogon.

    Raises ``ValueError`` if the chosen destination is, in fact,
    routable-looking — using a routable "bogon" would silently break the
    logic, so the guard is hard.
    """
    destination = bogon if bogon is not None else default_bogon(family)
    if not is_bogon(destination):
        raise ValueError(f"{destination} is not a bogon address")

    def next_id() -> Optional[int]:
        return rng.randint(0, 0xFFFF) if rng is not None else None

    result = IspCheckResult(family=family)
    qtype = QType.A if family == 4 else QType.AAAA
    exchange = client.exchange(
        destination, make_query(CONTROL_DOMAIN, qtype, msg_id=next_id())
    )
    result.probes.append(
        BogonProbe(destination=str(destination), kind="control-a", exchange=exchange)
    )
    if include_version_bind:
        exchange = client.exchange(
            destination, make_version_bind_query(msg_id=next_id())
        )
        result.probes.append(
            BogonProbe(
                destination=str(destination), kind="version-bind", exchange=exchange
            )
        )
    return result
