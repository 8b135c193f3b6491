"""Transparent DNS-intercepting middleboxes.

A :class:`MiddleboxRouter` is an on-path router that applies an
:class:`~repro.interceptors.policy.InterceptionPolicy` to transiting
UDP/53 traffic. In REDIRECT mode it performs flow-tracked DNAT: the query
is rewritten toward the alternate resolver, and the resolver's reply —
which transits the same box on its way back — has its source rewritten to
the address the client originally queried. The client sees a response
"from" 8.8.8.8 that Google never sent.

Placed inside the client's ISP this models ISP-policy interception
(§3.3/§4.3); placed beyond the AS border (see
:class:`ExternalInterceptor`) it models interception the bogon test
cannot localise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dnswire import DNS_PORT, decode_or_none
from repro.net import Packet, Protocol, make_reply, make_udp
from repro.net.addr import IPAddress, parse_ip
from repro.net.doh import DOH_PORT
from repro.net.doq import is_doq_payload
from repro.net.dot import DOT_PORT, unwrap_dot, wrap_dot
from repro.net.router import Router

from .encrypted import (
    EncryptedAction,
    EncryptedQuery,
    parse_encrypted_query,
    wrap_encrypted_response,
)
from .policy import InterceptMode, InterceptionPolicy

#: Fallback identity for a middlebox with no AS (transit interceptors);
#: in-AS boxes present a per-AS name (see ``MiddleboxRouter.tls_identity``).
MIDDLEBOX_TLS_IDENTITY = "dns-proxy.invalid"


@dataclass(frozen=True)
class InterceptedFlow:
    """Original destination of one hijacked client flow."""

    original_dst: IPAddress


@dataclass(frozen=True)
class DowngradedFlow:
    """One encrypted session this box terminated and downgraded to 53.

    Remembers everything needed to dress the plaintext answer back up as
    the encrypted protocol the client spoke: original destination, the
    encrypted port dialed, and the query framing to mirror.
    """

    original_dst: IPAddress
    dport: int
    query: EncryptedQuery


class MiddleboxRouter(Router):
    """An on-path interceptor."""

    def __init__(
        self,
        name: str,
        policy: "InterceptionPolicy | None" = None,
        alternate_resolver_v4: "str | IPAddress | None" = None,
        alternate_resolver_v6: "str | IPAddress | None" = None,
        addresses=None,
        asn: Optional[int] = None,
        drop_bogons: bool = False,
        policies: "tuple[InterceptionPolicy, ...] | None" = None,
    ) -> None:
        super().__init__(name, addresses=addresses or [], asn=asn, drop_bogons=drop_bogons)
        if policy is not None and policies:
            raise ValueError("pass either policy or policies, not both")
        if policy is not None:
            policies = (policy,)
        if not policies:
            raise ValueError("a middlebox needs at least one policy")
        self.policies: tuple[InterceptionPolicy, ...] = tuple(policies)
        self.alternate_v4 = (
            parse_ip(alternate_resolver_v4) if alternate_resolver_v4 else None
        )
        self.alternate_v6 = (
            parse_ip(alternate_resolver_v6) if alternate_resolver_v6 else None
        )
        # (client addr, client port) -> original destination.
        self._flows: dict[tuple[IPAddress, int], InterceptedFlow] = {}
        # (client addr, client port) -> terminated encrypted session.
        self._encrypted_flows: dict[tuple[IPAddress, int], DowngradedFlow] = {}
        # Per-connection DoQ stream ids already consumed (RFC 9250: a
        # terminating proxy must reset streams it sees reused).
        self._doq_streams: dict[tuple[IPAddress, int], set[int]] = {}

    def reset(self) -> None:
        """Forget every flow, downgraded session and DoQ stream (scenario
        reuse)."""
        self._flows.clear()
        self._encrypted_flows.clear()
        self._doq_streams.clear()

    @property
    def tls_identity(self) -> str:
        """Certificate identity of this box's TLS termination: derived
        from the operator AS when known, so it follows ``asn`` (a late
        import: repro.atlas builds scenarios out of this module)."""
        if self.asn is None:
            return MIDDLEBOX_TLS_IDENTITY
        from repro.atlas.geo import as_identity

        return as_identity(self.asn, "dns-proxy")

    def alternate_for_family(self, family: int) -> Optional[IPAddress]:
        return self.alternate_v4 if family == 4 else self.alternate_v6

    # -- transit inspection -----------------------------------------------

    def forward(self, packet: Packet) -> None:
        """Proxy-style actions (BLOCK/DROP) happen before the TTL check.

        Like a PREROUTING rule, a middlebox that *answers locally* takes
        the packet off the wire without a forwarding decision, so even a
        TTL=1-on-arrival query gets its spoofed error. REDIRECT continues
        through normal forwarding (the rewritten packet still travels to
        the alternate resolver, TTL applying per hop) — this asymmetry is
        what the TTL-probing extension observes.
        """
        if (
            packet.protocol is Protocol.UDP
            and packet.udp is not None
            and packet.udp.dport in (DOT_PORT, DOH_PORT)
            and self._handle_encrypted_query(packet)
        ):
            return
        if (
            packet.protocol is Protocol.UDP
            and packet.udp is not None
            and packet.udp.dport in (DNS_PORT, DOT_PORT)
        ):
            policy = self._matching_policy(packet)
            if policy is not None and policy.mode in (
                InterceptMode.BLOCK,
                InterceptMode.DROP,
            ):
                alternate = self.alternate_for_family(packet.family)
                if alternate is None or packet.dst != alternate:
                    if policy.mode is InterceptMode.DROP:
                        self.trace("drop", packet, "policy DROP")
                    else:
                        self._answer_error(packet, policy)
                    return
        super().forward(packet)

    def inspect_transit(self, packet: Packet) -> bool:
        if packet.protocol is not Protocol.UDP or packet.udp is None:
            return False
        if packet.udp.sport == DNS_PORT and self._inspect_downgraded_reply(packet):
            return True
        if packet.udp.dport in (DNS_PORT, DOT_PORT):
            return self._inspect_query(packet)
        if packet.udp.sport in (DNS_PORT, DOT_PORT):
            return self._inspect_reply(packet)
        return False

    @property
    def policy(self) -> InterceptionPolicy:
        """The first policy (convenience for single-policy middleboxes)."""
        return self.policies[0]

    def _matching_policy(self, packet: Packet) -> Optional[InterceptionPolicy]:
        is_dot = packet.udp is not None and packet.udp.dport == DOT_PORT
        for policy in self.policies:
            if not policy.plaintext:
                continue  # encrypted-only: Do53 passes untouched
            if is_dot and not policy.intercept_dot:
                continue
            if policy.matches(packet):
                return policy
        return None

    def _inspect_query(self, packet: Packet) -> bool:
        assert packet.udp is not None
        alternate = self.alternate_for_family(packet.family)
        if alternate is not None and packet.dst == alternate:
            return False  # queries already headed to the alternate: hands off
        policy = self._matching_policy(packet)
        if policy is None:
            return False

        mode = policy.mode
        if mode is InterceptMode.DROP:
            self.trace("drop", packet, "policy DROP")
            return True
        if mode is InterceptMode.BLOCK:
            self._answer_error(packet, policy)
            return True

        # REDIRECT / REPLICATE need an alternate resolver to hand off to.
        if alternate is None:
            return False
        if mode is InterceptMode.REPLICATE:
            # The original continues untouched; a hijacked copy races it.
            self.forward_by_route(packet)
        self._flows[(packet.src, packet.udp.sport)] = InterceptedFlow(packet.dst)
        hijacked = packet.with_dst(alternate)
        if self.observing:
            self.trace("intercept", hijacked, f"DNAT {packet.dst} -> {alternate}")
        self.forward_by_route(hijacked)
        return True

    def _inspect_reply(self, packet: Packet) -> bool:
        assert packet.udp is not None
        alternate = self.alternate_for_family(packet.family)
        if alternate is None or packet.src != alternate:
            return False
        flow = self._flows.get((packet.dst, packet.udp.dport))
        if flow is None:
            return False
        spoofed = packet.with_src(flow.original_dst)
        if self.observing:
            self.trace(
                "rewrite",
                spoofed,
                f"un-DNAT reply src {packet.src} -> {flow.original_dst}",
            )
        self.forward_by_route(spoofed)
        return True

    # -- encrypted transports (per-protocol policy) ----------------------------

    def _encrypted_action(
        self, packet: Packet, query: EncryptedQuery
    ) -> EncryptedAction:
        """First-match per-protocol/per-SNI action across the policies."""
        for policy in self.policies:
            if policy.encrypted is None or not policy.matches(packet):
                continue
            action = policy.encrypted.action_for(query.protocol, query.sni)
            if action is not EncryptedAction.PASS:
                return action
        return EncryptedAction.PASS

    def _handle_encrypted_query(self, packet: Packet) -> bool:
        """Apply the encrypted-DNS policy to one session packet.

        Runs before the TTL check like the other proxy-style actions: a
        terminating box takes the session off the wire without a
        forwarding decision. Returns True when the packet was consumed
        (blocked or downgraded); False lets it continue — through the
        legacy ``intercept_dot`` path for port 853, then normal routing.
        """
        assert packet.udp is not None
        query = parse_encrypted_query(packet.udp.payload, packet.udp.dport)
        if query is None:
            return False
        action = self._encrypted_action(packet, query)
        if action is EncryptedAction.PASS:
            return False
        if action is EncryptedAction.BLOCK:
            self.trace("drop", packet, f"encrypted BLOCK ({query.protocol})")
            return True
        # DOWNGRADE: terminate the session, relay the inner query over
        # plaintext UDP/53 to the *original* destination, keeping the
        # client's source so the answer routes back through this box.
        connection = (packet.src, packet.udp.sport)
        if query.protocol == "doq":
            seen = self._doq_streams.setdefault(connection, set())
            if query.stream_id in seen:
                self.trace(
                    "drop", packet, f"DoQ stream {query.stream_id} reused: reset"
                )
                return True
            seen.add(query.stream_id)
        self._encrypted_flows[connection] = DowngradedFlow(
            original_dst=packet.dst, dport=packet.udp.dport, query=query
        )
        relayed = make_udp(
            packet.src,
            packet.udp.sport,
            packet.dst,
            DNS_PORT,
            query.dns_payload,
            ttl=packet.ttl,
        )
        self.trace(
            "intercept",
            relayed,
            f"downgrade-to-53 ({query.protocol}, sni={query.sni})",
        )
        self.forward_by_route(relayed)
        return True

    def _inspect_downgraded_reply(self, packet: Packet) -> bool:
        """Dress a plaintext answer back up as the encrypted protocol.

        The relayed UDP/53 answer from the original destination transits
        this box on its way to the client; it is re-framed with the
        middlebox's own TLS identity on the port the client dialed. The
        answer *content* is the genuine resolver's — only the identity
        gives the termination away, which is why only strict-profile
        clients notice.
        """
        assert packet.udp is not None
        flow = self._encrypted_flows.get((packet.dst, packet.udp.dport))
        if flow is None or packet.src != flow.original_dst:
            return False
        del self._encrypted_flows[(packet.dst, packet.udp.dport)]
        wire = wrap_encrypted_response(
            flow.query, packet.udp.payload, self.tls_identity
        )
        rewrapped = make_udp(
            packet.src,
            flow.dport,
            packet.dst,
            packet.udp.dport,
            wire,
            ttl=packet.ttl,
        )
        self.trace(
            "rewrite",
            rewrapped,
            f"re-encrypt downgraded answer ({flow.query.protocol})",
        )
        self.forward_by_route(rewrapped)
        return True

    # -- BLOCK mode ------------------------------------------------------------

    def _answer_error(self, packet: Packet, policy: InterceptionPolicy) -> None:
        assert packet.udp is not None
        payload = packet.udp.payload
        is_dot = packet.udp.dport == DOT_PORT
        if is_dot:
            if is_doq_payload(payload):
                # Port 853 is shared with DoQ (RFC 9250). This box only
                # terminates DoT sessions; a QUIC session it cannot
                # terminate is dropped, never unwrapped as if it were
                # DoT and never answered with a plaintext error.
                self.trace("drop", packet, "BLOCK: DoQ session (not DoT)")
                return
            frame = unwrap_dot(payload)
            if frame is None:
                self.trace("drop", packet, "BLOCK: malformed DoT frame")
                return
            payload = frame.dns_payload
        elif packet.udp.dport != DNS_PORT:
            # Any other encrypted port (e.g. DoH on 443): the payload is
            # session framing, not a bare DNS message — decoding it as
            # one would answer garbage. Drop with a trace instead.
            self.trace("drop", packet, f"BLOCK: encrypted port {packet.udp.dport}")
            return
        query = decode_or_none(payload)
        if query is None or query.question is None:
            self.trace("drop", packet, "BLOCK: unparseable query")
            return
        wire = query.reply(rcode=policy.block_rcode).encode()
        if is_dot:
            # The middlebox terminates the TLS session with its own
            # certificate: the identity in the frame cannot be the
            # target's. Strict-profile clients will reject this.
            wire = wrap_dot(wire, self.tls_identity)
        reply = make_reply(packet, wire)  # src = original dst (spoofed)
        self.trace("intercept", reply, "policy BLOCK (spoofed error)")
        self.forward_by_route(reply)


class ExternalInterceptor(MiddleboxRouter):
    """An interceptor on a transit path *outside* the client's AS.

    Because bogon-addressed queries never leave the client's AS, this
    interceptor never sees them: Step 3 yields no answer and the paper's
    classification is "unknown (potentially beyond the ISP)". Transit
    routers filter bogons, hence ``drop_bogons=True``.
    """

    def __init__(
        self, name: str, policy: "InterceptionPolicy | None" = None, **kwargs
    ) -> None:
        kwargs.setdefault("drop_bogons", True)
        super().__init__(name, policy, **kwargs)
