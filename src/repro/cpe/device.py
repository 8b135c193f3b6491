"""The CPE (customer-premises equipment) device model.

A :class:`CpeDevice` is a home router: it NATs IPv4 traffic between the
home LAN and the ISP, routes IPv6 natively, optionally runs an embedded
DNS forwarder (:mod:`repro.cpe.forwarder`), and — in the configurations
this paper is about — carries a PREROUTING DNAT rule that hijacks port-53
traffic to that forwarder.

Behavioural matrix (the cases the methodology must distinguish):

===========================  =========================  ======================
Configuration                Query to public resolver   Query to CPE WAN IP
===========================  =========================  ======================
honest, port 53 closed       forwarded untouched        dropped (timeout)
honest, port 53 open         forwarded untouched        forwarder answers
DNAT interceptor             hijacked to forwarder,     forwarder answers
                             answer spoofed
===========================  =========================  ======================

Step 2 of the methodology tells rows two and three apart by *comparing*
the ``version.bind`` strings from both columns (Appendix A).
"""

from __future__ import annotations

from typing import Optional

from repro.dnswire import DNS_PORT, RCode, decode_or_none
from repro.net import (
    Action,
    Chain,
    NatTable,
    Packet,
    Protocol,
    make_reply,
    udp53_dnat_rule,
)
from repro.net.addr import IPAddress, IPNetwork, parse_ip, parse_network
from repro.net.doh import DOH_PORT
from repro.net.dot import DOT_PORT
from repro.net.router import Router
from repro.interceptors.encrypted import (
    EncryptedDnsPolicy,
    parse_encrypted_query,
    wrap_encrypted_response,
)

from .encrypted import CPE_TLS_IDENTITY, DOWNGRADE_PORT, EncryptedDnsEngine
from .forwarder import UPSTREAM_PORT, ForwarderEngine


class CpeDevice(Router):
    """A residential gateway.

    Parameters
    ----------
    name:
        Node name.
    lan_v4_prefix:
        The home IPv4 subnet (e.g. ``192.168.1.0/24``); the CPE owns
        its ``.1``.
    wan_gateway:
        Node name of the ISP access router.
    lan_host:
        Node name of the (single) measured host inside the home.
    wan_v4 / wan_v6 / lan_v6_prefix:
        The addressing the ISP assigns (see :meth:`assign_wan`); a CPE
        built without it has only its LAN address until assigned one.
    forwarder:
        The embedded DNS forwarder, or None for a pure router.
    wan_port53_open:
        Whether the forwarder is reachable on the WAN address even
        without interception (the confounder Appendix A discusses).
    model:
        Marketing name, e.g. ``"XB6"`` — surfaces in traces and reports.
    """

    def __init__(
        self,
        name: str,
        lan_v4_prefix: "str | IPNetwork",
        wan_gateway: str,
        lan_host: str,
        wan_v4: "str | IPAddress | None" = None,
        wan_v6: "str | IPAddress | None" = None,
        lan_v6_prefix: "str | IPNetwork | None" = None,
        forwarder: Optional[ForwarderEngine] = None,
        wan_port53_open: bool = False,
        model: str = "generic",
        asn: Optional[int] = None,
        encrypted_dns: Optional[EncryptedDnsPolicy] = None,
    ) -> None:
        if isinstance(lan_v4_prefix, str):
            lan_v4_prefix = parse_network(lan_v4_prefix)
        lan_gateway_v4 = lan_v4_prefix.network_address + 1
        super().__init__(name, asn=asn)
        self.model = model
        self.lan_v4_prefix = lan_v4_prefix
        self.lan_gateway_v4 = lan_gateway_v4
        self.wan_gateway = wan_gateway
        self.lan_host = lan_host
        self.nat = NatTable()
        self.prerouting = Chain("PREROUTING")
        self.forwarder = forwarder
        self.wan_port53_open = wan_port53_open
        self.encrypted = EncryptedDnsEngine(encrypted_dns)

        # LAN-side routes: home prefixes to the host, default upstream.
        self.routes.add(str(lan_v4_prefix), lan_host)
        self.routes.add_default(wan_gateway, family=4)
        self.routes.add_default(wan_gateway, family=6)
        self.lan_v6_prefix: Optional[IPNetwork] = None
        self.assign_wan(wan_v4, wan_v6, lan_v6_prefix)

    def assign_wan(
        self,
        wan_v4: "str | IPAddress | None",
        wan_v6: "str | IPAddress | None" = None,
        lan_v6_prefix: "str | IPNetwork | None" = None,
    ) -> None:
        """Take the addressing the ISP assigns: the WAN addresses and the
        delegated IPv6 prefix, with the NAT address and the LAN route that
        embed them. NAT bindings and ``prerouting`` rules are kept."""
        if self.lan_v6_prefix is not None:
            self.routes.remove(self.lan_v6_prefix)
        self.wan_v4 = parse_ip(wan_v4) if wan_v4 else None
        self.wan_v6 = parse_ip(wan_v6) if wan_v6 else None
        if isinstance(lan_v6_prefix, str):
            lan_v6_prefix = parse_network(lan_v6_prefix)
        self.lan_v6_prefix = lan_v6_prefix
        wan = (self.wan_v4, self.wan_v6)
        self._addresses = {self.lan_gateway_v4, *(a for a in wan if a is not None)}
        self.invalidate_addresses()
        self.nat.wan_v4 = self.wan_v4
        if self.lan_v6_prefix is not None:
            self.routes.add(self.lan_v6_prefix, self.lan_host)

    def reset(self) -> None:
        """Drop NAT bindings and the forwarder's and encrypted engine's
        relays (scenario reuse)."""
        self.nat = NatTable(wan_v4=self.wan_v4)
        if self.forwarder is not None:
            self.forwarder.reset()
        self.encrypted.reset()

    # -- configuration -----------------------------------------------------

    def enable_interception(self, family: int = 4) -> None:
        """Install the XDNS-style DNAT hijack rule for one family.

        The rule rewrites every LAN-originated UDP/53 packet's destination
        to the CPE's own address, putting the embedded forwarder in the
        resolution path — destination NAT exactly as RDK-B's firewall
        does it.
        """
        if self.forwarder is None:
            raise ValueError("cannot intercept without an embedded forwarder")
        target = self.lan_gateway_v4 if family == 4 else self.wan_v6
        if target is None:
            raise ValueError(f"no IPv{family} address to DNAT to")
        self.prerouting.append(
            udp53_dnat_rule(target, comment=f"{self.model} DNS redirection v{family}")
        )

    def intercepts_family(self, family: int) -> bool:
        for rule in self.prerouting.rules:
            if rule.action is Action.DNAT and rule.dnat_to is not None:
                if rule.dnat_to.version == family:
                    return True
        return False

    def wan_address(self, family: int) -> Optional[IPAddress]:
        return self.wan_v4 if family == 4 else self.wan_v6

    # -- direction helpers ----------------------------------------------------

    def is_from_lan(self, packet: Packet) -> bool:
        if packet.family == 4:
            return packet.src in self.lan_v4_prefix
        return self.lan_v6_prefix is not None and packet.src in self.lan_v6_prefix

    # -- transit path -----------------------------------------------------------

    def forward(self, packet: Packet) -> None:
        """PREROUTING runs *before* the TTL-forwarding decrement.

        This matches Linux: a DNAT rule rewrites the destination before
        the routing decision, so a packet DNAT'd to the gateway itself is
        locally delivered and never has its TTL checked — which is why a
        TTL=1 probe elicits a DNS answer (not an ICMP) from an
        intercepting CPE. The TTL-probing extension (§6) keys on exactly
        this behaviour.

        Then the plain router path, except that LAN->WAN IPv4 UDP is
        source-NATed. The LAN-origin test runs once for both decisions.
        """
        from_lan = packet.protocol is Protocol.UDP and self.is_from_lan(packet)
        if from_lan:
            udp = packet.udp
            assert udp is not None
            if udp.dport in (
                DOT_PORT,
                DOH_PORT,
            ) and self.encrypted.handle_client_session(self, packet):
                return
            # An empty chain ACCEPTs everything: skip it and its Verdict.
            if self.prerouting.rules and self._prerouting(packet):
                return
        if packet.ttl <= 1:
            self._emit_time_exceeded(packet)
            return
        packet = packet.decrement_ttl()
        if from_lan and packet.family == 4:
            self._snat(packet)
            return
        self.forward_by_route(packet)  # IPv6 and WAN->LAN: plain routing

    def _prerouting(self, packet: Packet) -> bool:
        """Run PREROUTING on a LAN packet; True if it was consumed."""
        verdict = self.prerouting.evaluate(packet)
        if verdict.action is Action.DROP:
            self.trace("drop", packet, "firewall DROP")
            return True
        if verdict.action is not Action.DNAT:
            return False
        hijacked = verdict.packet
        if self.observing:
            self.trace(
                "intercept",
                hijacked,
                f"DNAT {packet.dst} -> {hijacked.dst} "
                f"[{verdict.rule.comment if verdict.rule else ''}]",
            )
        if self.forwarder is not None:
            # Role switch (§3.2): stop forwarding by IP rules,
            # become a DNS forwarder. Reply claims the original dst.
            self.forwarder.handle_client_query(self, hijacked, reply_src=packet.dst)
        else:
            self.trace("drop", hijacked, "DNAT with no forwarder")
        return True

    def _snat(self, packet: Packet) -> None:
        """Source-NAT a LAN->WAN IPv4 packet and route it upstream."""
        translated = self.nat.translate_outbound(packet)
        if translated is None:
            self.trace("drop", packet, "no WAN address")
            return
        if self.observing:
            self.trace("rewrite", translated, f"SNAT {packet.src} -> {translated.src}")
        self.forward_by_route(translated)

    # -- local delivery -----------------------------------------------------------

    def deliver_local(self, packet: Packet) -> None:
        if packet.protocol is not Protocol.UDP:
            self._deliver_icmp(packet)
            return
        assert packet.udp is not None

        # 1. Inbound NAT: packets to the WAN address matching a binding
        #    belong to a LAN flow.
        if packet.family == 4 and packet.dst == self.wan_v4:
            translated = self.nat.translate_inbound(packet)
            if translated is not None:
                if self.observing:
                    self.trace(
                        "rewrite", translated, f"un-SNAT -> {translated.dst}"
                    )
                self.forward_by_route(translated)
                return

        # 2. The forwarder's own upstream responses.
        if (
            self.forwarder is not None
            and packet.udp.dport == UPSTREAM_PORT
            and packet.dst in (self.wan_v4, self.wan_v6)
        ):
            self.forwarder.handle_upstream_response(self, packet)
            return

        # 2b. Answers to the encrypted engine's downgraded relays.
        if packet.udp.dport == DOWNGRADE_PORT and packet.dst in (
            self.wan_v4,
            self.wan_v6,
        ):
            self.encrypted.handle_upstream_response(self, packet)
            return

        # 2c. The CPE's own TLS endpoint. A forwarder reachable from the
        #     WAN terminates encrypted probes too — it cannot speak for
        #     anyone else, so it refuses the query, but the session
        #     presents the router's self-signed identity, which is what
        #     certificate cross-validation is there to observe.
        if (
            packet.udp.dport in (DOT_PORT, DOH_PORT)
            and self.forwarder is not None
            and packet.dst in (self.wan_v4, self.wan_v6)
            and (self.wan_port53_open or self.intercepts_family(packet.family))
        ):
            self._answer_tls_probe(packet)
            return

        # 3. DNS service on the CPE itself.
        if packet.udp.dport == DNS_PORT and self.forwarder is not None:
            on_wan = packet.dst in (self.wan_v4, self.wan_v6)
            on_lan = packet.dst == self.lan_gateway_v4
            serves_wan = self.wan_port53_open or self.intercepts_family(packet.family)
            if on_lan or (on_wan and serves_wan):
                self.forwarder.handle_client_query(self, packet, reply_src=packet.dst)
                return
            self.trace("drop", packet, "port 53 closed on WAN")
            return

        self.trace("drop", packet, f"closed port {packet.udp.dport}")

    def _answer_tls_probe(self, packet: Packet) -> None:
        """Refuse an encrypted query under the CPE's own certificate."""
        assert packet.udp is not None
        query = parse_encrypted_query(packet.udp.payload, packet.udp.dport)
        if query is None:
            self.trace("drop", packet, "malformed encrypted probe")
            return
        inner = decode_or_none(query.dns_payload)
        if inner is None or inner.question is None:
            self.trace("drop", packet, "unparseable encrypted probe")
            return
        wire = wrap_encrypted_response(
            query, inner.reply(rcode=RCode.REFUSED).encode(), CPE_TLS_IDENTITY
        )
        reply = make_reply(packet, wire)
        self.trace("deliver", reply, "cpe tls endpoint (REFUSED)")
        self.send_toward(reply)

    def _deliver_icmp(self, packet: Packet) -> None:
        """ICMP errors for NATed flows are translated back to the LAN host.

        Real NATs rewrite ICMP errors using the quoted inner packet; this
        is what lets a LAN host run traceroute — and what makes the TTL
        probing extension (§6) work from behind NAT.
        """
        assert packet.icmp is not None
        quoted = packet.icmp.quoted
        if (
            quoted is not None
            and quoted.protocol is Protocol.UDP
            and quoted.udp is not None
            and packet.family == 4
            and quoted.src == self.wan_v4
        ):
            binding = self.nat.binding_for_public_port(4, quoted.udp.sport)
            if binding is not None:
                flow = binding.flow
                inner = quoted.with_src(flow.src, sport=flow.sport)
                rewritten = packet.with_quoted(flow.src, inner)
                self.trace("rewrite", rewritten, "icmp un-SNAT")
                self.forward_by_route(rewritten)
                return
        self.trace("deliver", packet, "icmp for cpe")

    # -- emission helpers used by the forwarder ------------------------------------

    def emit_lan(self, packet: Packet) -> None:
        self.send_toward(packet)

    def emit_wan(self, packet: Packet) -> None:
        self.send_toward(packet)

    def render_firewall(self) -> str:
        """The PREROUTING chain in iptables-ish text (for the case study)."""
        return self.prerouting.render()
