"""Network address translation: the SNAT engine every CPE runs.

Home routers rewrite outbound packets to their WAN address and allocate a
public source port per flow (source NAT); inbound packets to the WAN
address are matched against the translation table and rewritten back.
This matters for the methodology: the Step-2 query is addressed to the
CPE's *own WAN address*, which is precisely the address that NAT makes
special — an honest CPE terminates or drops such packets, it never
forwards them upstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .addr import IPAddress, parse_ip
from .packet import Packet, Protocol

#: First WAN-side port handed out by the NAT.
NAT_PORT_BASE = 50000
#: Ports above this are never allocated (wraps to exhaustion error).
NAT_PORT_MAX = 65535


class FlowKey(NamedTuple):
    """Identity of an outbound flow, pre-translation.

    A tuple, so the translation table can look a flow up by the plain
    ``(src, sport, dst, dport)`` tuple of each packet it sees.
    """

    src: IPAddress
    sport: int
    dst: IPAddress
    dport: int


@dataclass(frozen=True)
class NatBinding:
    """A translation-table entry."""

    flow: FlowKey
    public_port: int


class NatTable:
    """Port-translating source NAT for one WAN address per family."""

    def __init__(self, wan_v4: "str | IPAddress | None" = None,
                 wan_v6: "str | IPAddress | None" = None) -> None:
        self.wan_v4 = parse_ip(wan_v4) if wan_v4 else None
        self.wan_v6 = parse_ip(wan_v6) if wan_v6 else None
        #: Keyed by the plain (src, sport, dst, dport) tuple, equal to the
        #: binding's FlowKey.
        self._outbound: dict[tuple, NatBinding] = {}
        self._inbound: dict[tuple[int, int], NatBinding] = {}  # (family, port)
        self._next_port = NAT_PORT_BASE

    def wan_address(self, family: int) -> Optional[IPAddress]:
        return self.wan_v4 if family == 4 else self.wan_v6

    def _allocate_port(self, family: int) -> int:
        while (family, self._next_port) in self._inbound:
            self._next_port += 1
        if self._next_port > NAT_PORT_MAX:
            raise RuntimeError("NAT port space exhausted")
        port = self._next_port
        self._next_port += 1
        return port

    # -- translation ----------------------------------------------------

    def translate_outbound(self, packet: Packet) -> Optional[Packet]:
        """SNAT an outbound packet; None if no WAN address for the family."""
        udp = packet.udp
        assert packet.protocol is Protocol.UDP and udp is not None
        family = packet.family
        wan = self.wan_v4 if family == 4 else self.wan_v6
        if wan is None:
            return None
        flow = (packet.src, udp.sport, packet.dst, udp.dport)
        binding = self._outbound.get(flow)
        if binding is None:
            binding = NatBinding(FlowKey(*flow), self._allocate_port(family))
            self._outbound[flow] = binding
            self._inbound[(family, binding.public_port)] = binding
        return packet.with_src(wan, sport=binding.public_port)

    def translate_inbound(self, packet: Packet) -> Optional[Packet]:
        """Reverse-translate a packet arriving at the WAN address.

        Returns the rewritten packet headed for the LAN host, or None if
        no binding exists (the packet is *for the CPE itself* or unsolicited).

        Note the deliberately permissive match: only the WAN port is
        checked, not the remote endpoint. This is "full-cone"-style NAT,
        and it is what lets a *spoofed* interceptor response (src forged
        to the target resolver) traverse the NAT exactly as the genuine
        response would — the property transparent interception relies on.
        """
        assert packet.protocol is Protocol.UDP and packet.udp is not None
        binding = self._inbound.get((packet.family, packet.udp.dport))
        if binding is None:
            return None
        flow = binding.flow
        return packet.with_dst(flow.src, dport=flow.sport)

    def binding_for_public_port(self, family: int, port: int) -> Optional[NatBinding]:
        """Look up a binding by its WAN-side port (used for ICMP errors)."""
        return self._inbound.get((family, port))
