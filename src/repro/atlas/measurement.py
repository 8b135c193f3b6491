"""The measurement client: DNS exchanges as a probe performs them.

This is the software equivalent of what RIPE Atlas exposes: send a DNS
query from the probe to an arbitrary destination and report what came
back. Like a real stub resolver, the client validates responses — the
claimed source must be the queried address, the port must match, and the
DNS message id must echo — which is exactly why interceptors *must*
spoof sources to stay transparent (§2).

Every transport returns the same shape: a subclass of
:class:`ExchangeResult` (status, rcode, rtt_ms, attempts),
so callers and metrics hooks never special-case the transport. The
transport implementations live in the :mod:`repro.atlas.transport`
registry; this module owns the result shapes, the metrics hook and
the :class:`MeasurementClient`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.dnswire import Message
from repro.net import Host, Network
from repro.net.addr import IPAddress
from repro.net.node import ReceivedDatagram, ReceivedIcmp
from repro.net.packet import DEFAULT_TTL

from .retry import RetryPolicy

#: How long a probe waits for an answer (simulated milliseconds).
DEFAULT_TIMEOUT_MS = 5000.0


class ExchangeStatus(enum.Enum):
    """Terminal state of one exchange, transport-independent."""

    ANSWERED = "answered"
    TIMEOUT = "timeout"
    #: Strict-profile encrypted transports only: bytes arrived but the
    #: authenticated server identity was wrong, so the client refused
    #: the session.
    IDENTITY_REJECTED = "identity-rejected"
    #: A validated response arrived with the TC bit set and no complete
    #: answer followed. The probe has no TCP fallback, so the answer
    #: content is unusable — scoring a truncated section as if it were
    #: the full response would misclassify. Classifier steps treat this
    #: like an exhausted measurement and degrade to INCONCLUSIVE.
    TRUNCATED = "truncated"


@dataclass
class ExchangeResult:
    """Shared outcome shape for one query, whatever the transport.

    The unified surface is ``status`` / ``rcode`` / ``rtt_ms`` /
    ``attempts``; transport-specific detail lives on the
    :class:`DnsExchangeResult` and :class:`EncryptedExchangeResult`
    subclasses.
    """

    query: Message
    destination: IPAddress
    transport: str = "udp"
    response: Optional[Message] = None
    rtt_ms: Optional[float] = None
    #: Transmissions performed (1 + retransmissions for UDP; always 1
    #: for encrypted transports, which ride the session's reliability).
    attempts: int = 1
    status: ExchangeStatus = ExchangeStatus.TIMEOUT

    @property
    def answered(self) -> bool:
        return self.status is ExchangeStatus.ANSWERED

    @property
    def rcode(self) -> Optional[int]:
        return None if self.response is None else self.response.rcode


@dataclass
class DnsExchangeResult(ExchangeResult):
    """UDP exchange outcome: the shared shape plus datagram forensics."""

    #: Every response accepted by validation, in arrival order. More than
    #: one element means *query replication* (Liu et al. [31]): an
    #: interceptor answered and the genuine response also arrived.
    accepted: list[Message] = field(default_factory=list)
    #: Datagrams rejected by source/id validation (would-be off-path junk).
    rejected: list[ReceivedDatagram] = field(default_factory=list)
    #: Validated responses that arrived with the TC bit set. These pass
    #: source/port/id validation but are *not* complete answers — their
    #: sections may be cut anywhere — so they never populate ``response``
    #: or ``accepted``; with no complete answer the exchange ends
    #: ``TRUNCATED`` instead of ``ANSWERED``.
    truncated: list[Message] = field(default_factory=list)
    #: ICMP errors attributable to this query (for TTL probing).
    icmp: list[ReceivedIcmp] = field(default_factory=list)

    @property
    def replicated(self) -> bool:
        """True when validation accepted two *distinct* responses.

        Byte-identical extras are link-level duplication, not query
        replication: an interceptor's injected answer always differs
        from the genuine one (different payload), while an impaired
        link's duplicate is the same message delivered twice.
        """
        if len(self.accepted) < 2:
            return False
        first = self.accepted[0]
        return any(message != first for message in self.accepted[1:])


@dataclass
class EncryptedExchangeResult(ExchangeResult):
    """Encrypted-session exchange outcome: the shared shape plus identity.

    Common to DoT, DoH and DoQ. ``strict`` clients (the RFC 7858 strict
    privacy profile and its DoH/DoQ analogues) reject any session whose
    authenticated identity differs from the one they dialed;
    ``response`` is then None even though bytes arrived — ``status`` is
    ``IDENTITY_REJECTED``.
    """

    expected_identity: str = ""
    strict: bool = True
    observed_identity: Optional[str] = None

    @property
    def identity_ok(self) -> Optional[bool]:
        if self.observed_identity is None:
            return None
        return self.observed_identity == self.expected_identity


@dataclass
class DotExchangeResult(EncryptedExchangeResult):
    """DNS-over-TLS exchange outcome (the common encrypted shape)."""


@dataclass
class DohExchangeResult(EncryptedExchangeResult):
    """DNS-over-HTTPS exchange outcome: encrypted shape plus HTTP detail."""

    #: RFC 8484 wire shape used for the request ("GET" or "POST").
    method: str = "POST"
    #: HTTP status of the last response frame seen, if any arrived.
    http_status: Optional[int] = None


@dataclass
class DoqExchangeResult(EncryptedExchangeResult):
    """DNS-over-QUIC exchange outcome: encrypted shape plus stream id."""

    #: QUIC stream the query ran on (always 0: fresh connection per query).
    stream_id: int = 0


def _record_exchange(network: Network, result: ExchangeResult) -> None:
    """Shared metrics hook — identical for every transport."""
    metrics = network.metrics
    if not metrics.enabled:
        return
    transport = result.transport
    metrics.inc(f"exchange.queries.{transport}")
    if result.attempts > 1:
        metrics.inc("exchange.retransmissions", result.attempts - 1)
    if result.status is ExchangeStatus.TIMEOUT:
        metrics.inc(f"exchange.timeouts.{transport}")
    elif result.status is ExchangeStatus.IDENTITY_REJECTED:
        metrics.inc("exchange.identity_rejected")
    elif result.status is ExchangeStatus.TRUNCATED:
        metrics.inc(f"exchange.truncated.{transport}")
    if result.rtt_ms is not None:
        metrics.observe_ms(f"exchange.rtt_ms.{transport}", result.rtt_ms)
    if metrics.exchange_events:
        metrics.event(
            "exchange",
            transport=transport,
            destination=str(result.destination),
            status=result.status.value,
            attempts=result.attempts,
            rtt_ms=result.rtt_ms,
        )


@dataclass
class MeasurementClient:
    """Convenience wrapper binding a network and a probe host.

    ``retry_policy`` applies stub-style retransmission to every UDP
    exchange — set it when measuring over lossy or impaired paths.
    """

    network: Network
    host: Host
    timeout_ms: float = DEFAULT_TIMEOUT_MS
    retry_policy: Optional[RetryPolicy] = None

    def resolve(
        self,
        query: Message,
        destination: "str | IPAddress",
        transport: str = "udp53",
        **options,
    ) -> ExchangeResult:
        """Resolve over any registered transport — the unified surface.

        Delegates to :func:`repro.atlas.transport.resolve`; see there
        for the per-transport options (``retry``, ``expected_identity``,
        ``strict``, ``method``, ``ttl``, ``timeout_ms``).
        """
        from .transport import resolve

        return resolve(self, query, destination, transport, **options)

    def exchange(
        self,
        destination: "str | IPAddress",
        query: Message,
        ttl: int = DEFAULT_TTL,
        timeout_ms: Optional[float] = None,
    ) -> DnsExchangeResult:
        from .transport import udp53_exchange

        return udp53_exchange(
            self.network,
            self.host,
            destination,
            query,
            timeout_ms=timeout_ms if timeout_ms is not None else self.timeout_ms,
            ttl=ttl,
            retry=self.retry_policy,
        )

    def can_reach_family(self, family: int) -> bool:
        return self.host.address_for_family(family) is not None

    def dot(
        self,
        destination: "str | IPAddress",
        query: Message,
        expected_identity: str,
        strict: bool = True,
        timeout_ms: Optional[float] = None,
    ) -> DotExchangeResult:
        from .transport import dot_exchange as modern_dot_exchange

        return modern_dot_exchange(
            self.network,
            self.host,
            destination,
            query,
            expected_identity=expected_identity,
            strict=strict,
            timeout_ms=timeout_ms if timeout_ms is not None else self.timeout_ms,
        )
