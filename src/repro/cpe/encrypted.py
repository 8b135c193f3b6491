"""Encrypted-DNS handling inside a CPE (the XDRI attack surface).

Residential gateways increasingly carry opinions about encrypted DNS:
RDK-B class firmware can block port 853 outright, and an XDNS-style
forwarder can terminate sessions and force resolution back through the
ISP resolver — the "downgrade" behaviour that silently re-inserts the
gateway into the resolution path an encrypted stub tried to escape.

The :class:`EncryptedDnsEngine` is the CPE-side counterpart of the
middlebox's per-protocol policy: it classifies LAN-originated sessions
on ports 853/443, applies the firmware's
:class:`~repro.interceptors.encrypted.EncryptedDnsPolicy`, and for
downgrades relays the inner query over plaintext UDP/53 to the
forwarder's upstream (the ISP resolver), re-framing the answer with the
*gateway's* certificate identity. Unlike the middlebox — which relays
to the original destination and therefore returns genuine answer
content — a CPE downgrade swaps the resolver too, exactly what XDNS
does for plaintext.

Session state lives here: the per-connection set of consumed DoQ stream
ids (RFC 9250 forbids stream reuse; a terminating proxy must track it)
and the pending map for in-flight relays. Both are keyed by the LAN
client's (address, port) — which is why ``reset()`` must run on
scenario reuse: the LAN address is fixed and ephemeral ports rewind, so
stale entries from a previous probe would collide with a fresh one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.dnswire import DNS_PORT
from repro.net import Packet, make_udp
from repro.net.addr import IPAddress
from repro.interceptors.encrypted import (
    EncryptedAction,
    EncryptedDnsPolicy,
    EncryptedQuery,
    PASS_THROUGH,
    parse_encrypted_query,
    wrap_encrypted_response,
)

if TYPE_CHECKING:  # pragma: no cover
    from .device import CpeDevice

#: WAN source port for the engine's downgraded plaintext relays
#: (distinct from the forwarder's UPSTREAM_PORT so replies demux).
DOWNGRADE_PORT = 3443

#: Identity on the gateway's own (self-signed) certificate. A CPE that
#: terminates DoT/DoH/DoQ cannot present the dialed resolver's identity
#: any more than a middlebox can.
CPE_TLS_IDENTITY = "router.local"


@dataclass
class PendingDowngrade:
    """Book-keeping for one downgraded session awaiting its answer."""

    client_addr: IPAddress
    client_port: int
    original_dst: IPAddress  # the reply must claim this source
    dport: int  # the encrypted port the client dialed (853/443)
    query: EncryptedQuery


class EncryptedDnsEngine:
    """Per-CPE encrypted-DNS policy enforcement and session state."""

    def __init__(self, policy: Optional[EncryptedDnsPolicy] = None) -> None:
        self.policy = policy or PASS_THROUGH
        self._pending: dict[int, PendingDowngrade] = {}
        # Per-connection DoQ stream ids already consumed.
        self._streams: dict[tuple[IPAddress, int], set[int]] = {}
        self._next_relay_id = 0x4000

    def reset(self) -> None:
        """Return the engine to its just-constructed state (scenario
        reuse): no pending relays, no remembered streams, the id
        allocator rewound."""
        self._pending.clear()
        self._streams.clear()
        self._next_relay_id = 0x4000

    # -- LAN side -----------------------------------------------------------

    def handle_client_session(self, cpe: "CpeDevice", packet: Packet) -> bool:
        """Apply the policy to one LAN-originated session packet.

        Returns True when the packet was consumed (blocked or
        downgraded); False means pass-through — the caller routes it
        upstream untouched.
        """
        assert packet.udp is not None
        query = parse_encrypted_query(packet.udp.payload, packet.udp.dport)
        if query is None:
            return False
        action = self.policy.action_for(query.protocol, query.sni)
        if action is EncryptedAction.PASS:
            return False
        if action is EncryptedAction.BLOCK:
            cpe.trace("drop", packet, f"encrypted BLOCK ({query.protocol})")
            return True
        # DOWNGRADE: terminate with the gateway's certificate and force
        # the query through the forwarder's upstream over plaintext.
        connection = (packet.src, packet.udp.sport)
        if query.protocol == "doq":
            seen = self._streams.setdefault(connection, set())
            if query.stream_id in seen:
                cpe.trace(
                    "drop", packet, f"DoQ stream {query.stream_id} reused: reset"
                )
                return True
            seen.add(query.stream_id)
        upstream = (
            cpe.forwarder.upstream_for_family(packet.family)
            if cpe.forwarder is not None
            else None
        )
        source = cpe.wan_address(packet.family)
        if upstream is None or source is None:
            # Downgrade configured but nowhere to relay to: the session
            # dies, indistinguishable from BLOCK on the wire.
            cpe.trace("drop", packet, "downgrade with no upstream")
            return True
        relay_id = self._allocate_id()
        self._pending[relay_id] = PendingDowngrade(
            client_addr=packet.src,
            client_port=packet.udp.sport,
            original_dst=packet.dst,
            dport=packet.udp.dport,
            query=query,
        )
        # Splice the relay id into the raw wire (first two bytes) rather
        # than decoding: the engine terminates sessions, it is not a DNS
        # server, and malformed inner payloads should fail upstream.
        wire = relay_id.to_bytes(2, "big") + query.dns_payload[2:]
        relayed = make_udp(source, DOWNGRADE_PORT, upstream, DNS_PORT, wire)
        cpe.trace(
            "intercept",
            relayed,
            f"downgrade-to-53 ({query.protocol}, sni={query.sni}) -> {upstream}",
        )
        cpe.emit_wan(relayed)
        return True

    # -- WAN side -----------------------------------------------------------

    def handle_upstream_response(self, cpe: "CpeDevice", packet: Packet) -> None:
        """Re-encrypt one plaintext answer and deliver it to the client."""
        assert packet.udp is not None
        wire = packet.udp.payload
        if len(wire) < 2:
            cpe.trace("drop", packet, "downgrade: short upstream response")
            return
        pending = self._pending.pop(int.from_bytes(wire[:2], "big"), None)
        if pending is None:
            cpe.trace("drop", packet, "downgrade: unexpected upstream id")
            return
        restored = pending.query.dns_payload[:2] + wire[2:]
        framed = wrap_encrypted_response(pending.query, restored, CPE_TLS_IDENTITY)
        reply = make_udp(
            pending.original_dst,
            pending.dport,
            pending.client_addr,
            pending.client_port,
            framed,
        )
        cpe.trace(
            "send",
            reply,
            f"re-encrypted downgraded answer ({pending.query.protocol}, "
            "spoofed source)",
        )
        cpe.emit_lan(reply)

    # -- helpers ------------------------------------------------------------

    def _allocate_id(self) -> int:
        self._next_relay_id = (self._next_relay_id + 1) & 0xFFFF
        while self._next_relay_id in self._pending:
            self._next_relay_id = (self._next_relay_id + 1) & 0xFFFF
        return self._next_relay_id

