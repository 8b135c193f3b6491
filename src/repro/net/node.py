"""End hosts: the measurement vantage points.

A :class:`Host` owns one or more addresses, sends UDP through a default
gateway, and collects inbound datagrams into sockets. It deliberately has
*no* routing ability and *no* raw-socket powers beyond setting the IP TTL
— mirroring the paper's constraint that the technique "can be implemented
on any device that can make DNS queries, without requiring root access"
(§1), with the TTL extension (§6) as the one privileged add-on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .addr import IPAddress, parse_ip
from .packet import (
    DEFAULT_TTL,
    IcmpType,
    Packet,
    Protocol,
    make_udp,
)
from .sim import Node, SimulationError

#: First ephemeral port handed out by a host.
EPHEMERAL_PORT_BASE = 40000


@dataclass
class ReceivedDatagram:
    """A UDP datagram as seen by a socket, with its claimed source."""

    payload: bytes
    src: IPAddress
    sport: int
    dst: IPAddress
    time: float


@dataclass
class ReceivedIcmp:
    """An ICMP message delivered to the host (for TTL probing)."""

    icmp_type: IcmpType
    reporter: IPAddress
    quoted: Optional[Packet]
    time: float


class UdpSocket:
    """A bound UDP port collecting inbound datagrams."""

    def __init__(self, host: "Host", port: int) -> None:
        self.host = host
        self.port = port
        self.inbox: list[ReceivedDatagram] = []
        self.closed = False

    def sendto(
        self,
        payload: bytes,
        dst: "str | IPAddress",
        dport: int,
        ttl: int = DEFAULT_TTL,
        src: "str | IPAddress | None" = None,
    ) -> Packet:
        """Send ``payload`` from this socket; returns the emitted packet."""
        if self.closed:
            raise SimulationError("socket is closed")
        return self.host.send_udp(self, payload, dst, dport, ttl=ttl, src=src)

    def drain(self) -> list[ReceivedDatagram]:
        """Remove and return everything received so far."""
        out, self.inbox = self.inbox, []
        return out

    def close(self) -> None:
        self.closed = True
        self.host.release_socket(self)


class Host(Node):
    """An end host with UDP sockets, a gateway, and ICMP visibility."""

    def __init__(
        self,
        name: str,
        addresses: "list[str | IPAddress] | None" = None,
        gateway: Optional[str] = None,
        asn: Optional[int] = None,
    ) -> None:
        super().__init__(name, asn=asn)
        #: family -> source address memo for ``address_for_family``;
        #: reset by ``invalidate_addresses``.
        self._family_source: dict[int, Optional[IPAddress]] = {}
        self.set_addresses(addresses or [])
        self.gateway = gateway
        self._sockets: dict[int, UdpSocket] = {}
        self._next_port = EPHEMERAL_PORT_BASE
        self.icmp_inbox: list[ReceivedIcmp] = []

    def reset(self) -> None:
        """Unbind every socket, rewind the port allocator and forget
        received ICMP (scenario reuse)."""
        self._sockets.clear()
        self._next_port = EPHEMERAL_PORT_BASE
        self.icmp_inbox.clear()

    # -- addressing -----------------------------------------------------

    def invalidate_addresses(self) -> None:
        super().invalidate_addresses()
        self._family_source = {}

    def address_for_family(self, family: int) -> Optional[IPAddress]:
        try:
            return self._family_source[family]
        except KeyError:
            pass
        source = None
        for address in sorted(self._addresses, key=str):
            if address.version == family:
                source = address
                break
        self._family_source[family] = source
        return source

    # -- sockets -----------------------------------------------------------

    def open_socket(self, port: Optional[int] = None) -> UdpSocket:
        if port is None:
            while self._next_port in self._sockets:
                self._next_port += 1
            port = self._next_port
            self._next_port += 1
        if port in self._sockets:
            raise SimulationError(f"port {port} already bound on {self.name}")
        sock = UdpSocket(self, port)
        self._sockets[port] = sock
        return sock

    def release_socket(self, sock: UdpSocket) -> None:
        self._sockets.pop(sock.port, None)

    def send_udp(
        self,
        sock: UdpSocket,
        payload: bytes,
        dst: "str | IPAddress",
        dport: int,
        ttl: int = DEFAULT_TTL,
        src: "str | IPAddress | None" = None,
    ) -> Packet:
        dst = parse_ip(dst)
        if src is None:
            src = self.address_for_family(dst.version)
            if src is None:
                raise SimulationError(
                    f"{self.name} has no IPv{dst.version} address to reach {dst}"
                )
        packet = make_udp(src, sock.port, dst, dport, payload, ttl=ttl)
        if self.observing:
            self.trace("send", packet, f"socket {sock.port}")
        if self.gateway is None:
            raise SimulationError(f"{self.name} has no gateway")
        self.send(self.gateway, packet)
        return packet

    # -- delivery ------------------------------------------------------------

    def deliver_local(self, packet: Packet) -> None:
        if packet.protocol is Protocol.ICMP:
            assert packet.icmp is not None
            self.icmp_inbox.append(
                ReceivedIcmp(
                    icmp_type=packet.icmp.icmp_type,
                    reporter=packet.src,
                    quoted=packet.icmp.quoted,
                    time=self.network.now if self.network else 0.0,
                )
            )
            self.trace("deliver", packet, "icmp")
            return
        assert packet.udp is not None
        sock = self._sockets.get(packet.udp.dport)
        if sock is None or sock.closed:
            self.trace("drop", packet, f"no socket on port {packet.udp.dport}")
            return
        sock.inbox.append(
            ReceivedDatagram(
                payload=packet.udp.payload,
                src=packet.src,
                sport=packet.udp.sport,
                dst=packet.dst,
                time=self.network.now if self.network else 0.0,
            )
        )
        if self.observing:
            self.trace("deliver", packet, f"socket {packet.udp.dport}")
