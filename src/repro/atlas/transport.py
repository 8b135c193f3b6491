"""The transport registry: one ``resolve()`` for every DNS transport.

A transport is an entry in :data:`TRANSPORTS` mapping its name to an
exchange function with a uniform signature, and :func:`resolve` is the
single front door callers use: adding a protocol adds an entry, not a
second exchange path.

Supported transports:

``udp53``
    Plain Do53 over UDP, with stub-style retransmission via any
    :class:`~repro.atlas.retry.RetryPolicy`. Returns a
    :class:`~repro.atlas.measurement.DnsExchangeResult`.
``dot``
    DNS-over-TLS (abstracted): single send, identity validation per the
    strict/opportunistic privacy profile. Returns a
    :class:`~repro.atlas.measurement.DotExchangeResult`.
``doh``
    DNS-over-HTTPS: GET or POST wire shape, identity validation as DoT,
    plus the HTTP status. Returns a
    :class:`~repro.atlas.measurement.DohExchangeResult`.
``doq``
    DNS-over-QUIC: fresh connection + stream 0 per query, server must
    echo the stream id, and a TC-set response is a protocol error that
    the client discards (RFC 9250 forbids truncation — there is no
    retry-over-TCP escape hatch). Returns a
    :class:`~repro.atlas.measurement.DoqExchangeResult`.

All encrypted transports retry at most never: reliability belongs to the
session layer, so ``attempts`` is always 1 and ``retry`` is ignored.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dnswire import DNS_PORT, Message, decode_or_none
from repro.net import Host, Network
from repro.net.addr import IPAddress, parse_ip
from repro.net.doh import DOH_PORT, unwrap_doh_response, wrap_doh_query
from repro.net.doq import DOQ_PORT, unwrap_doq, wrap_doq
from repro.net.dot import DOT_PORT, unwrap_dot, wrap_dot
from repro.net.node import ReceivedDatagram
from repro.net.packet import DEFAULT_TTL

from .measurement import (
    DEFAULT_TIMEOUT_MS,
    DnsExchangeResult,
    DohExchangeResult,
    DoqExchangeResult,
    DotExchangeResult,
    EncryptedExchangeResult,
    ExchangeResult,
    ExchangeStatus,
    _record_exchange,
)
from .retry import RetryPolicy


def udp53_exchange(
    network: Network,
    host: Host,
    destination: "str | IPAddress",
    query: Message,
    *,
    timeout_ms: float = DEFAULT_TIMEOUT_MS,
    ttl: int = DEFAULT_TTL,
    retry: Optional[RetryPolicy] = None,
    **_ignored,
) -> DnsExchangeResult:
    """Send ``query`` over plain UDP/53 and collect the outcome.

    Runs the simulated network forward until the timeout. All datagrams
    arriving at the ephemeral port are validated: claimed source must be
    ``destination`` and the message id must match. ICMP errors quoting
    this probe's packets are gathered for TTL analysis.

    Retransmissions (same message id, same socket) are governed by
    ``retry`` — any :class:`~repro.atlas.retry.RetryPolicy`, e.g.
    exponential backoff with jitter for chaos studies; None means a
    single transmission. Whatever the policy, the overall ``timeout_ms``
    budget covers all attempts and no retransmission is sent at or past
    the deadline.
    """
    delays = retry.delays_ms(query.msg_id) if retry is not None else []
    destination = parse_ip(destination)
    result = DnsExchangeResult(query=query, destination=destination)
    sock = host.open_socket()
    icmp_mark = len(host.icmp_inbox)

    send_times: list[float] = []

    def classify(datagrams: "list[ReceivedDatagram]") -> None:
        for datagram in datagrams:
            message = decode_or_none(datagram.payload)
            if (
                message is None
                or not message.is_response
                or message.msg_id != query.msg_id
                or datagram.src != destination
                or datagram.sport != DNS_PORT
            ):
                result.rejected.append(datagram)
                continue
            if message.flags.tc:
                # Truncation: the sections of a TC-set response may be
                # cut anywhere, so it is not a complete answer. With no
                # TCP fallback the exchange surfaces TRUNCATED rather
                # than scoring partial content as the real response.
                result.truncated.append(message)
                continue
            result.accepted.append(message)
            if result.response is None:
                result.response = message
                # RTT against the transmission this answer responds to:
                # the most recent send at or before its arrival, not the
                # first one — an answer to the Nth retransmission must
                # not be inflated by N retry intervals.
                earlier = [t for t in send_times if t <= datagram.time]
                sent_at = earlier[-1] if earlier else send_times[0]
                result.rtt_ms = datagram.time - sent_at
                result.status = ExchangeStatus.ANSWERED

    try:
        send_times.append(network.now)
        sock.sendto(query.encode(), destination, DNS_PORT, ttl=ttl)
        deadline = send_times[0] + timeout_ms
        retry_index = 0
        next_retry = send_times[0] + delays[0] if delays else deadline
        while True:
            pending = retry_index < len(delays)
            # A retransmission scheduled at or past the deadline never
            # goes out: the horizon min() stops the clock at the
            # deadline first and the loop exits on the budget check.
            horizon = min(deadline, next_retry) if pending else deadline
            network.run(until=horizon)
            # Validate what arrived *before* deciding whether to keep
            # retrying: a rejected datagram (wrong source/port/id — the
            # off-path junk validation exists to discard) must not
            # cancel the remaining retransmissions.
            classify(sock.drain())
            if result.accepted or result.truncated:
                # A truncated answer is a definite (if unusable) reply
                # from the right source: retransmitting the same UDP
                # query would only get it truncated again.
                break
            if network.now >= deadline or not pending:
                break
            send_times.append(network.now)
            sock.sendto(query.encode(), destination, DNS_PORT, ttl=ttl)
            retry_index += 1
            if retry_index < len(delays):
                next_retry = network.now + delays[retry_index]
        result.attempts = len(send_times)
        if result.response is None and result.truncated:
            result.status = ExchangeStatus.TRUNCATED
        result.icmp = [
            icmp
            for icmp in host.icmp_inbox[icmp_mark:]
            if icmp.quoted is not None
            and icmp.quoted.udp is not None
            and icmp.quoted.udp.sport == sock.port
        ]
    finally:
        sock.close()
    if result.rejected and network.metrics.enabled:
        network.metrics.inc("exchange.rejected_datagrams", len(result.rejected))
    if result.replicated:
        network.metrics.inc("exchange.replicated")
    _record_exchange(network, result)
    return result


def _encrypted_exchange(
    network: Network,
    host: Host,
    destination: "str | IPAddress",
    query: Message,
    result: EncryptedExchangeResult,
    port: int,
    request_wire: bytes,
    unwrap: Callable[[bytes], "Optional[tuple[str, bytes]]"],
    timeout_ms: float,
) -> None:
    """Shared single-send session exchange for DoT/DoH/DoQ.

    ``unwrap`` turns one received payload into ``(server_identity,
    dns_payload)`` or None for frames that are not this protocol's (or
    violate its semantics — the DoQ stream-echo and no-TC rules live in
    the per-transport unwrappers). A rejected session dominates: a
    strict client that refused the interceptor's certificate reports the
    hijack attempt even if the genuine answer also slipped through.
    """
    destination = parse_ip(destination)
    result.destination = destination
    sock = host.open_socket()
    rejected_session = False
    try:
        sent_at = network.now
        sock.sendto(request_wire, destination, port)
        network.run(until=sent_at + timeout_ms)
        for datagram in sock.drain():
            if datagram.src != destination or datagram.sport != port:
                continue
            unwrapped = unwrap(datagram.payload)
            if unwrapped is None:
                continue
            identity, dns_payload = unwrapped
            message = decode_or_none(dns_payload)
            if message is None or message.msg_id != query.msg_id:
                continue
            result.observed_identity = identity
            if result.strict and identity != result.expected_identity:
                rejected_session = True
                continue
            if result.response is None:
                result.response = message
                result.rtt_ms = datagram.time - sent_at
    finally:
        sock.close()
    if rejected_session:
        result.status = ExchangeStatus.IDENTITY_REJECTED
    elif result.response is not None:
        result.status = ExchangeStatus.ANSWERED
    _record_exchange(network, result)


def dot_exchange(
    network: Network,
    host: Host,
    destination: "str | IPAddress",
    query: Message,
    *,
    expected_identity: str = "",
    strict: bool = True,
    timeout_ms: float = DEFAULT_TIMEOUT_MS,
    **_ignored,
) -> DotExchangeResult:
    """Send ``query`` over (abstracted) DNS-over-TLS to port 853.

    The strict profile validates the server identity against
    ``expected_identity``; the opportunistic profile accepts any
    identity — which is precisely why it remains interceptable (§6).
    The client frame carries the dialed name (the SNI an on-path
    interceptor can match on).
    """
    result = DotExchangeResult(
        query=query,
        destination=parse_ip(destination),
        transport="dot",
        expected_identity=expected_identity,
        strict=strict,
    )

    def unwrap(payload: bytes):
        frame = unwrap_dot(payload)
        if frame is None:
            return None
        return frame.server_identity, frame.dns_payload

    _encrypted_exchange(
        network,
        host,
        destination,
        query,
        result,
        DOT_PORT,
        wrap_dot(query.encode(), expected_identity),
        unwrap,
        timeout_ms,
    )
    return result


def doh_exchange(
    network: Network,
    host: Host,
    destination: "str | IPAddress",
    query: Message,
    *,
    expected_identity: str = "",
    strict: bool = True,
    method: str = "POST",
    timeout_ms: float = DEFAULT_TIMEOUT_MS,
    **_ignored,
) -> DohExchangeResult:
    """Send ``query`` over (abstracted) DNS-over-HTTPS to port 443.

    ``method`` selects the RFC 8484 wire shape (``GET`` = base64url
    ``?dns=`` parameter, ``POST`` = raw body). Identity semantics match
    DoT; the HTTP status of the accepted response is recorded, and
    non-2xx responses are protocol errors the client discards.
    """
    result = DohExchangeResult(
        query=query,
        destination=parse_ip(destination),
        transport="doh",
        expected_identity=expected_identity,
        strict=strict,
        method=method,
    )

    def unwrap(payload: bytes):
        response = unwrap_doh_response(payload)
        if response is None:
            return None
        result.http_status = response.status
        if response.status // 100 != 2:
            return None
        return response.server_identity, response.dns_payload

    _encrypted_exchange(
        network,
        host,
        destination,
        query,
        result,
        DOH_PORT,
        wrap_doh_query(query.encode(), expected_identity, method),
        unwrap,
        timeout_ms,
    )
    return result


def doq_exchange(
    network: Network,
    host: Host,
    destination: "str | IPAddress",
    query: Message,
    *,
    expected_identity: str = "",
    strict: bool = True,
    timeout_ms: float = DEFAULT_TIMEOUT_MS,
    **_ignored,
) -> DoqExchangeResult:
    """Send ``query`` over (abstracted) DNS-over-QUIC to port 853.

    Each query gets a fresh connection (a fresh ephemeral port) and runs
    on stream 0; the server must echo the stream id. A response with the
    TC bit set is an RFC 9250 protocol error and is discarded — DoQ has
    no truncation-retry path.
    """
    result = DoqExchangeResult(
        query=query,
        destination=parse_ip(destination),
        transport="doq",
        expected_identity=expected_identity,
        strict=strict,
        stream_id=0,
    )

    def unwrap(payload: bytes):
        frame = unwrap_doq(payload)
        if frame is None or frame.stream_id != result.stream_id:
            return None
        message = decode_or_none(frame.dns_payload)
        if message is not None and message.flags.tc:
            return None  # RFC 9250 §4.3: TC over DoQ is a protocol error
        return frame.server_identity, frame.dns_payload

    _encrypted_exchange(
        network,
        host,
        destination,
        query,
        result,
        DOQ_PORT,
        wrap_doq(query.encode(), expected_identity, result.stream_id),
        unwrap,
        timeout_ms,
    )
    return result


#: The registry ``resolve()`` dispatches over. Every entry shares the
#: ``(network, host, destination, query, **options)`` signature and
#: ignores options foreign to its transport.
TRANSPORTS: dict[str, Callable[..., ExchangeResult]] = {
    "udp53": udp53_exchange,
    "dot": dot_exchange,
    "doh": doh_exchange,
    "doq": doq_exchange,
}

#: Transports that run over an encrypted session (identity-validating).
ENCRYPTED_TRANSPORTS: tuple[str, ...] = ("dot", "doh", "doq")


def resolve(
    client,
    query: Message,
    destination: "str | IPAddress",
    transport: str = "udp53",
    *,
    retry: "RetryPolicy | None | object" = ...,
    expected_identity: str = "",
    strict: bool = True,
    method: str = "POST",
    ttl: int = DEFAULT_TTL,
    timeout_ms: Optional[float] = None,
) -> ExchangeResult:
    """Resolve ``query`` at ``destination`` over the named transport.

    The unified exchange surface: ``client`` is a
    :class:`~repro.atlas.measurement.MeasurementClient` (it supplies the
    network, probe host, timeout and default retry policy), and the
    result is transport-tagged — every transport returns the shared
    :class:`~repro.atlas.measurement.ExchangeResult` shape.

    ``retry`` defaults to the client's configured policy and only
    applies to ``udp53``; encrypted transports ride their session's
    reliability. ``expected_identity``/``strict`` select the privacy
    profile for encrypted transports; ``method`` selects the DoH wire
    shape.
    """
    exchange = TRANSPORTS.get(transport)
    if exchange is None:
        raise ValueError(
            f"unknown transport {transport!r}; expected one of {sorted(TRANSPORTS)}"
        )
    if retry is ...:
        retry = client.retry_policy
    return exchange(
        client.network,
        client.host,
        destination,
        query,
        timeout_ms=timeout_ms if timeout_ms is not None else client.timeout_ms,
        ttl=ttl,
        retry=retry,
        expected_identity=expected_identity,
        strict=strict,
        method=method,
    )
