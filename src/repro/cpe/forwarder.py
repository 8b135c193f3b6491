"""The embedded DNS forwarder that runs inside a CPE.

This is the component the paper's Step 2 fingerprints. It terminates
client queries (answering CHAOS debugging queries per its software
personality), forwards everything else to its pre-configured upstream —
typically the ISP resolver — and relays responses back. When a query was
*hijacked* (DNAT'd) rather than addressed to the CPE, the relay spoofs
the response source to the original destination, which is what makes the
interception transparent (§2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.dnswire import DNS_PORT, Message, RCode, decode_or_none
from repro.dnswire.edns import Edns, with_edns
from repro.net import Packet, make_udp
from repro.net.addr import IPAddress, parse_ip
from repro.resolvers.ambiguity import (
    DEFAULT_AMBIGUITY,
    AmbiguityAction,
    ambiguity_finalize,
    ambiguity_forward_transform,
    ambiguity_precheck,
)
from repro.resolvers.base import ChaosOutcome, chaos_respond
from repro.resolvers.software import ServerSoftware

if TYPE_CHECKING:  # pragma: no cover
    from .device import CpeDevice

#: WAN source port the forwarder uses for its own upstream queries.
UPSTREAM_PORT = 3053


@dataclass
class PendingQuery:
    """Book-keeping for one query relayed upstream."""

    client_addr: IPAddress
    client_port: int
    original_id: int
    reply_src: IPAddress  # spoofed to the original destination when hijacked
    qname_text: str
    #: EDNS state to re-attach to the relayed response, for software that
    #: strips unknown options on the way up but echoes them on the way
    #: back (``edns_unknown="echo"`` forwarder personalities).
    edns_echo: Optional[Edns] = None


class ForwarderEngine:
    """Per-CPE DNS forwarder state machine."""

    def __init__(
        self,
        software: ServerSoftware,
        upstream_v4: "str | IPAddress | None" = None,
        upstream_v6: "str | IPAddress | None" = None,
    ) -> None:
        self.software = software
        self.upstream_v4 = parse_ip(upstream_v4) if upstream_v4 else None
        self.upstream_v6 = parse_ip(upstream_v6) if upstream_v6 else None
        self._pending: dict[int, PendingQuery] = {}
        self._next_upstream_id = 0x1000

    def upstream_for_family(self, family: int) -> Optional[IPAddress]:
        return self.upstream_v4 if family == 4 else self.upstream_v6

    def reset(self) -> None:
        """Return the engine to its just-constructed state (scenario
        reuse): no pending relays, id allocator rewound."""
        self._pending.clear()
        self._next_upstream_id = 0x1000

    # -- client side --------------------------------------------------------

    def handle_client_query(
        self, cpe: "CpeDevice", packet: Packet, reply_src: IPAddress
    ) -> None:
        """Process a query that reached the forwarder.

        ``reply_src`` is the address the response must claim to come from:
        the CPE's own address for queries *addressed to* the CPE, or the
        original (hijacked) destination for DNAT'd queries.
        """
        assert packet.udp is not None
        query = decode_or_none(packet.udp.payload)
        if query is None or query.is_response or query.question is None:
            cpe.trace("drop", packet, "forwarder: not a query")
            return

        profile = self.software.ambiguity
        edns_echo: Optional[Edns] = None
        if profile is not DEFAULT_AMBIGUITY:
            # This code base has opinions about ambiguous queries: react
            # locally (error or silent drop) before anything is relayed,
            # so the divergence is attributable to *this* forwarder and
            # never composed with the upstream's.
            early = ambiguity_precheck(profile, query)
            if early is AmbiguityAction.DROP:
                cpe.trace("drop", packet, "forwarder: ambiguous query dropped")
                return
            if early is not None:
                self._reply(
                    cpe, packet, ambiguity_finalize(profile, query, early), reply_src
                )
                return
            query, edns_echo = ambiguity_forward_transform(profile, query)

        outcome = chaos_respond(self.software, query)
        if isinstance(outcome, Message):
            self._reply(
                cpe, packet, ambiguity_finalize(profile, query, outcome), reply_src
            )
            return
        if outcome is ChaosOutcome.IGNORE:
            cpe.trace("drop", packet, "forwarder: chaos ignored")
            return
        # NOT_CHAOS or FORWARD: relay upstream.
        self._forward_upstream(cpe, packet, query, reply_src, edns_echo=edns_echo)

    def _forward_upstream(
        self,
        cpe: "CpeDevice",
        packet: Packet,
        query: Message,
        reply_src: IPAddress,
        edns_echo: Optional[Edns] = None,
    ) -> None:
        upstream = self.upstream_for_family(packet.family)
        if upstream is None:
            self._reply(cpe, packet, query.reply(rcode=RCode.SERVFAIL), reply_src)
            return
        source = cpe.wan_address(packet.family)
        if source is None:
            self._reply(cpe, packet, query.reply(rcode=RCode.SERVFAIL), reply_src)
            return
        assert packet.udp is not None
        if self.software.ambiguity.overlap == "first":
            # Dedup on the client's (address, port, id) triple: a second
            # in-flight transmission reusing the id is treated as a
            # duplicate and dropped, even if its payload differs.
            for entry in self._pending.values():
                if (
                    entry.client_addr == packet.src
                    and entry.client_port == packet.udp.sport
                    and entry.original_id == query.msg_id
                ):
                    cpe.trace("drop", packet, "forwarder: duplicate in-flight id")
                    return
        upstream_id = self._allocate_id()
        self._pending[upstream_id] = PendingQuery(
            client_addr=packet.src,
            client_port=packet.udp.sport,
            original_id=query.msg_id,
            reply_src=reply_src,
            qname_text=query.question.qname.to_text() if query.question else ".",
            edns_echo=edns_echo,
        )
        relay = make_udp(
            source, UPSTREAM_PORT, upstream, DNS_PORT, query.with_id(upstream_id).encode()
        )
        if cpe.observing:
            cpe.trace("forward", relay, f"forwarder -> upstream {upstream}")
        cpe.emit_wan(relay)

    # -- upstream side ----------------------------------------------------

    def handle_upstream_response(self, cpe: "CpeDevice", packet: Packet) -> None:
        assert packet.udp is not None
        response = decode_or_none(packet.udp.payload)
        if response is None or not response.is_response:
            cpe.trace("drop", packet, "forwarder: bad upstream response")
            return
        pending = self._pending.get(response.msg_id)
        if pending is None:
            cpe.trace("drop", packet, "forwarder: unexpected upstream id")
            return
        # A matching id alone is not proof the response is ours: off-path
        # junk (or a blind spoofer racing the real answer) can collide on
        # the 16-bit id. Relay only what the configured upstream sent from
        # port 53 for the question we actually asked; mismatches are
        # dropped *without* consuming the pending entry, so the genuine
        # answer still finds it.
        if (
            packet.src != self.upstream_for_family(packet.family)
            or packet.udp.sport != DNS_PORT
        ):
            cpe.trace("drop", packet, "forwarder: response from non-upstream source")
            return
        qname = response.question.qname.to_text() if response.question else "."
        if qname != pending.qname_text:
            cpe.trace("drop", packet, "forwarder: response question mismatch")
            return
        del self._pending[response.msg_id]
        relayed = response.with_id(pending.original_id)
        if pending.edns_echo is not None:
            relayed = with_edns(
                relayed,
                payload_size=pending.edns_echo.payload_size,
                options=pending.edns_echo.options,
            )
        reply = make_udp(
            pending.reply_src,
            DNS_PORT,
            pending.client_addr,
            pending.client_port,
            relayed.encode(),
        )
        spoofed = pending.reply_src not in cpe.addresses()
        cpe.trace(
            "send",
            reply,
            "forwarder reply" + (" (spoofed source)" if spoofed else ""),
        )
        cpe.emit_lan(reply)

    # -- helpers --------------------------------------------------------------

    def _reply(
        self, cpe: "CpeDevice", packet: Packet, response: Message, reply_src: IPAddress
    ) -> None:
        assert packet.udp is not None
        reply = make_udp(
            reply_src, DNS_PORT, packet.src, packet.udp.sport, response.encode()
        )
        spoofed = reply_src not in cpe.addresses()
        cpe.trace(
            "send",
            reply,
            "forwarder local answer" + (" (spoofed source)" if spoofed else ""),
        )
        cpe.emit_lan(reply)

    def _allocate_id(self) -> int:
        self._next_upstream_id = (self._next_upstream_id + 1) & 0xFFFF
        while self._next_upstream_id in self._pending:
            self._next_upstream_id = (self._next_upstream_id + 1) & 0xFFFF
        return self._next_upstream_id

