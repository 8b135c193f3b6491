"""Base class for DNS server nodes attached to the simulated network.

A :class:`DnsServerNode` terminates UDP/53 on its addresses, decodes the
wire message, and dispatches to ``respond``. CHAOS-class debugging
queries are dispatched through the node's software personality so every
server in the zoo — public resolver, ISP resolver, embedded forwarder —
answers ``version.bind``/``id.server`` the way its software would.
"""

from __future__ import annotations

import enum
from typing import Optional, Union

from repro.dnswire import (
    DNS_PORT,
    Message,
    QClass,
    QType,
    RCode,
    decode_or_none,
    txt_record,
)
from repro.dnswire.chaosnames import HOSTNAME_BIND, ID_SERVER, VERSION_BIND
from repro.net import Packet, Protocol, make_reply
from repro.net.addr import IPAddress
from repro.net.doh import DOH_PORT, unwrap_doh_query, wrap_doh_response
from repro.net.doq import is_doq_payload, unwrap_doq, wrap_doq
from repro.net.dot import DOT_PORT, unwrap_dot, wrap_dot
from repro.net.sim import Node

from .ambiguity import (
    DEFAULT_AMBIGUITY,
    AmbiguityAction,
    ambiguity_finalize,
    ambiguity_precheck,
)
from .software import ChaosAction, ChaosBehavior, ServerSoftware, mute


class ChaosOutcome(enum.Enum):
    """Sentinel returned when the personality wants special handling."""

    FORWARD = "forward"
    IGNORE = "ignore"
    NOT_CHAOS = "not-chaos"


def chaos_respond(
    software: ServerSoftware, query: Message
) -> Union[Message, ChaosOutcome]:
    """Answer a CHAOS debugging query per ``software``'s personality.

    Returns a :class:`Message` when the software answers (or errors)
    locally, ``ChaosOutcome.FORWARD``/``IGNORE`` for those actions, and
    ``NOT_CHAOS`` when the query is not a CHAOS debugging query at all.
    """
    question = query.question
    if question is None or int(question.qclass) != int(QClass.CH):
        return ChaosOutcome.NOT_CHAOS
    if int(question.qtype) != int(QType.TXT):
        return query.reply(rcode=RCode.NOTIMP)
    behaviors = {
        VERSION_BIND: software.version_bind,
        ID_SERVER: software.id_server,
        HOSTNAME_BIND: software.hostname_bind,
    }
    behavior: Optional[ChaosBehavior] = behaviors.get(question.qname)
    if behavior is None:
        # Unknown CHAOS name: servers conventionally refuse.
        return query.reply(rcode=RCode.REFUSED)
    if behavior.action is ChaosAction.ANSWER:
        assert behavior.text is not None
        record = txt_record(
            question.qname, behavior.text, rdclass=int(QClass.CH), ttl=0
        )
        return query.reply(answers=(record,), authoritative=True)
    if behavior.action is ChaosAction.RCODE:
        return query.reply(rcode=behavior.rcode)
    if behavior.action is ChaosAction.FORWARD:
        return ChaosOutcome.FORWARD
    return ChaosOutcome.IGNORE


#: Bound on each server's answer-template cache; cleared when full.
_RESPONSE_CACHE_MAX = 4096


class DnsServerNode(Node):
    """A network node that serves DNS on UDP/53."""

    def __init__(
        self,
        name: str,
        addresses: "list[str | IPAddress]",
        software: Optional[ServerSoftware] = None,
        asn: Optional[int] = None,
        tls_identity: Optional[str] = None,
    ) -> None:
        super().__init__(name, asn=asn)
        self.software = software or mute()
        self.gateway: Optional[str] = None
        #: Name presented on the server's TLS certificate. None disables
        #: encrypted service entirely (ports 853 and 443 closed); set, it
        #: enables DoT and DoQ on 853 and DoH on 443 with this identity.
        self.tls_identity = tls_identity
        #: Opt-in answer-template cache: serving is a pure function of
        #: ``(payload minus id, response_signature)`` and of the
        #: server's :meth:`answer_identity`, so repeated identical
        #: queries replay the cached wire with the new id spliced in.
        #: Stays off unless a ScenarioCache, which has audited this
        #: node's purity, lends it templates
        #: (:meth:`share_answer_templates`).
        self.response_cache_enabled = False
        self._response_cache: dict = {}
        #: Identity -> templates, owned by the lender; None until lent.
        self._template_pool: Optional[dict] = None
        self.set_addresses(addresses)

    #: The attributes :meth:`respond` never reads: the network wiring,
    #: the ASN, the encrypted-transport identity (encrypted serving never
    #: uses templates) and the template state itself. Every other
    #: attribute, a subclass's new ones included, is part of
    #: :meth:`answer_identity`.
    NOT_ANSWER_IDENTITY = frozenset(
        {
            "network",
            "asn",
            "gateway",
            "tls_identity",
            "_addr_cache",
            "response_cache_enabled",
            "_response_cache",
            "_template_pool",
        }
    )

    def answer_identity(self) -> tuple:
        """The server's class and every attribute not on
        :attr:`NOT_ANSWER_IDENTITY`, by name (sets frozen). Servers equal
        in it answer every query alike, so they may share answer
        templates."""
        excluded = self.NOT_ANSWER_IDENTITY
        return (type(self),) + tuple(
            (name, frozenset(value) if isinstance(value, set) else value)
            for name, value in vars(self).items()
            if name not in excluded
        )

    def share_answer_templates(self, pool: dict) -> None:
        """Serve from ``pool``'s answer templates for this server's
        identity (creating them there on first use), now and after every
        change of address; ``pool`` maps :meth:`answer_identity` values
        to template tables, and its owner keeps it across scenarios."""
        self._template_pool = pool
        self._response_cache = pool.setdefault(self.answer_identity(), {})
        self.response_cache_enabled = True

    def set_addresses(self, addresses: "list[str | IPAddress]") -> None:
        """Replace the server's addresses. A new address set changes the
        server's identity (a recursive resolver's answer may embed its
        own address), so the server moves to that identity's templates,
        or starts an empty table when none were lent."""
        before = self._addresses
        super().set_addresses(addresses)
        if self._addresses != before:
            pool = self._template_pool
            if pool is None:
                self._response_cache = {}
            else:
                self._response_cache = pool.setdefault(self.answer_identity(), {})

    # -- plumbing ----------------------------------------------------------

    def deliver_local(self, packet: Packet) -> None:
        if packet.protocol is not Protocol.UDP:
            self.trace("drop", packet, "icmp at server")
            return
        assert packet.udp is not None
        if packet.udp.dport == DNS_PORT:
            self._serve(packet, packet.udp.payload)
            return
        if packet.udp.dport == DOT_PORT and self.tls_identity is not None:
            # Port 853 is shared: DoQ (RFC 9250) and DoT are told apart
            # by frame magic, as real stacks are by transport protocol.
            payload = packet.udp.payload
            if is_doq_payload(payload):
                doq_frame = unwrap_doq(payload)
                if doq_frame is None:
                    self.trace("drop", packet, "malformed DoQ frame")
                    return
                identity = self.tls_identity
                stream_id = doq_frame.stream_id
                self._serve(
                    packet,
                    doq_frame.dns_payload,
                    wrap=lambda wire: wrap_doq(wire, identity, stream_id),
                    label="DoQ",
                )
                return
            frame = unwrap_dot(payload)
            if frame is None:
                self.trace("drop", packet, "malformed DoT frame")
                return
            identity = self.tls_identity
            self._serve(
                packet,
                frame.dns_payload,
                wrap=lambda wire: wrap_dot(wire, identity),
                label="DoT",
            )
            return
        if packet.udp.dport == DOH_PORT and self.tls_identity is not None:
            request = unwrap_doh_query(packet.udp.payload)
            if request is None:
                self.trace("drop", packet, "malformed DoH request")
                return
            identity = self.tls_identity
            self._serve(
                packet,
                request.dns_payload,
                wrap=lambda wire: wrap_doh_response(wire, identity),
                label="DoH",
            )
            return
        self.trace("drop", packet, f"closed port {packet.udp.dport}")

    def response_signature(self, packet: Packet) -> tuple:
        """Everything besides the query wire that ``respond`` may read
        from ``packet``. The answer-template cache keys on it; subclasses
        whose answers depend on more of the source address must widen it
        (see :class:`~repro.resolvers.public.PublicResolverNode`)."""
        return (packet.src.version,)

    def _serve(self, packet: Packet, payload: bytes, wrap=None, label: str = "") -> None:
        """Serve one decoded query. ``wrap`` re-frames the response wire
        for encrypted transports (DoT/DoH/DoQ reply framing); None means
        plaintext UDP/53. A lent answer-template cache serves plaintext
        repeats: a template is the reply wire after its id (bytes) or
        the drop's trace detail (str), and a hit traces exactly what the
        uncached path traces, so observed and unobserved runs take this
        same path. Encrypted serving never uses the cache — session
        framing varies per query (DoQ stream ids) and encrypted volume
        is too small to matter."""
        cache = None
        key = None
        if self.response_cache_enabled and wrap is None and len(payload) >= 2:
            cache = self._response_cache
            key = (payload[2:], self.response_signature(packet))
            template = cache.get(key)
            if template is not None:
                if type(template) is str:
                    self.trace("drop", packet, template)
                else:
                    self._reply(packet, payload[:2] + template, label)
                return
        query = decode_or_none(payload)
        if query is None or query.is_response or query.question is None:
            detail = "not a DNS query"
        else:
            response = self.respond(query, packet)
            if response is not None:
                wire = response.encode()
                # Cache only when the reply id echoes the query id, so a
                # hit can rebuild the exact wire from the incoming
                # payload's first two bytes (it always does — reply()
                # preserves msg_id — but the check keeps a future exotic
                # responder from poisoning the cache).
                if cache is not None and wire[:2] == payload[:2]:
                    self._cache_store(key, wire[2:])
                self._reply(packet, wire if wrap is None else wrap(wire), label)
                return
            detail = "server chose not to answer"
        self.trace("drop", packet, detail)
        if cache is not None:
            self._cache_store(key, detail)

    def _reply(self, packet: Packet, wire: bytes, label: str) -> None:
        reply = make_reply(packet, wire)
        if self.observing:
            self.trace(
                "send", reply, "dns response" + (f" ({label})" if label else "")
            )
        self.emit(reply)

    def _cache_store(self, key, value) -> None:
        cache = self._response_cache
        if len(cache) >= _RESPONSE_CACHE_MAX:
            cache.clear()
        cache[key] = value

    def emit(self, packet: Packet) -> None:
        """Send a locally generated packet toward its destination."""
        if self.gateway is None:
            raise RuntimeError(f"{self.name} has no gateway configured")
        self.send(self.gateway, packet)

    # -- behaviour ----------------------------------------------------------

    def respond(self, query: Message, packet: Packet) -> Optional[Message]:
        """Compute the response message; None means drop (timeout).

        Ambiguous queries (TC flag set, multiple questions, unknown EDNS
        options, odd opcodes) are intercepted by the software's
        :class:`~repro.resolvers.ambiguity.AmbiguityProfile` before
        normal dispatch — the fingerprint surface. The shared default
        profile short-circuits to the historical path untouched.
        """
        profile = self.software.ambiguity
        if profile is DEFAULT_AMBIGUITY:
            return self._respond_dispatch(query, packet)
        early = ambiguity_precheck(profile, query)
        if early is AmbiguityAction.DROP:
            return None
        response = (
            early if early is not None else self._respond_dispatch(query, packet)
        )
        return ambiguity_finalize(profile, query, response)

    def _respond_dispatch(self, query: Message, packet: Packet) -> Optional[Message]:
        outcome = chaos_respond(self.software, query)
        if isinstance(outcome, Message):
            return outcome
        if outcome is ChaosOutcome.IGNORE:
            return None
        if outcome is ChaosOutcome.FORWARD:
            # Plain servers have no upstream; refuse rather than loop.
            return query.reply(rcode=RCode.REFUSED)
        return self.respond_standard(query, packet)

    def respond_standard(self, query: Message, packet: Packet) -> Optional[Message]:
        """Handle a non-CHAOS query. Default: REFUSED (no recursion here)."""
        return query.reply(rcode=RCode.REFUSED)
