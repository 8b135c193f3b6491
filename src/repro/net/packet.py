"""Simulated IP packets: UDP datagrams and ICMP messages.

Packets are immutable; every rewriting device (NAT, DNAT interceptor,
spoofing middlebox) produces a *new* packet via ``replace``-style helpers.
That makes packet traces trustworthy: a captured packet can never be
mutated after the fact by a later hop.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

from .addr import IPAddress, parse_ip

#: Default initial TTL, matching common OS defaults.
DEFAULT_TTL = 64

_packet_counter = itertools.count(1)


class Protocol(enum.Enum):
    UDP = "udp"
    ICMP = "icmp"


class IcmpType(enum.Enum):
    """The ICMP messages the simulator generates."""

    TIME_EXCEEDED = "time-exceeded"
    PORT_UNREACHABLE = "port-unreachable"
    NET_UNREACHABLE = "net-unreachable"


@dataclass(frozen=True)
class UdpData:
    """UDP header + payload."""

    sport: int
    dport: int
    payload: bytes

    def __post_init__(self) -> None:
        for port in (self.sport, self.dport):
            if not 0 < port <= 0xFFFF:
                raise ValueError(f"bad port: {port}")


@dataclass(frozen=True)
class IcmpData:
    """ICMP message quoting the packet that triggered it."""

    icmp_type: IcmpType
    quoted: Optional["Packet"] = None


@dataclass(frozen=True)
class Packet:
    """A simulated IP packet.

    ``uid`` is a monotonically increasing identity used only for tracing;
    rewritten copies keep their ancestor's uid in ``lineage`` so a trace
    can follow one query through NAT and DNAT rewrites.
    """

    src: IPAddress
    dst: IPAddress
    protocol: Protocol
    udp: Optional[UdpData] = None
    icmp: Optional[IcmpData] = None
    ttl: int = DEFAULT_TTL
    uid: int = field(default_factory=lambda: next(_packet_counter))
    lineage: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "src", parse_ip(self.src))
        object.__setattr__(self, "dst", parse_ip(self.dst))
        if self.src.version != self.dst.version:
            raise ValueError("src/dst address family mismatch")
        if self.protocol is Protocol.UDP and self.udp is None:
            raise ValueError("UDP packet without UDP data")
        if self.protocol is Protocol.ICMP and self.icmp is None:
            raise ValueError("ICMP packet without ICMP data")

    @property
    def family(self) -> int:
        return self.src.version

    # -- rewriting helpers -------------------------------------------------

    def _derived(self, **changes) -> "Packet":
        # Rewrites happen once or more per hop, so this skips
        # dataclasses.replace and __post_init__ re-validation: every field
        # either carries over from this (already validated) packet or is
        # supplied pre-parsed by the with_*/truncated helpers below.
        child = Packet.__new__(Packet)
        state = dict(self.__dict__)
        state.update(changes)
        state["uid"] = next(_packet_counter)
        state["lineage"] = self.lineage + (self.uid,)
        child.__dict__.update(state)
        return child

    def decrement_ttl(self) -> "Packet":
        # Once per router hop: the _derived copy minus its **changes merge.
        child = Packet.__new__(Packet)
        state = child.__dict__
        state.update(self.__dict__)
        state["ttl"] = self.ttl - 1
        state["uid"] = next(_packet_counter)
        state["lineage"] = self.lineage + (self.uid,)
        return child

    def with_dst(self, dst: "str | IPAddress", dport: int | None = None) -> "Packet":
        """DNAT rewrite: new destination address (and optionally port)."""
        udp = self.udp
        if dport is not None and udp is not None:
            udp = replace(udp, dport=dport)
        return self._derived(dst=parse_ip(dst), udp=udp)

    def with_src(self, src: "str | IPAddress", sport: int | None = None) -> "Packet":
        """SNAT rewrite: new source address (and optionally port)."""
        udp = self.udp
        if sport is not None and udp is not None:
            udp = replace(udp, sport=sport)
        return self._derived(src=parse_ip(src), udp=udp)

    def truncated(self, length: int) -> "Packet":
        """Damage rewrite: keep only the first ``length`` payload bytes
        (link impairment — the receiver sees a short, undecodable datagram)."""
        if self.udp is None:
            raise ValueError("only UDP packets can be truncated")
        return self._derived(udp=replace(self.udp, payload=self.udp.payload[:length]))

    def describe(self) -> str:
        if self.protocol is Protocol.UDP:
            assert self.udp is not None
            return (
                f"UDP {self.src}:{self.udp.sport} -> {self.dst}:{self.udp.dport} "
                f"ttl={self.ttl} len={len(self.udp.payload)}"
            )
        assert self.icmp is not None
        return f"ICMP {self.icmp.icmp_type.value} {self.src} -> {self.dst} ttl={self.ttl}"


def make_udp(
    src: "str | IPAddress",
    sport: int,
    dst: "str | IPAddress",
    dport: int,
    payload: bytes,
    ttl: int = DEFAULT_TTL,
) -> Packet:
    """Build a UDP packet."""
    return Packet(
        src=parse_ip(src),
        dst=parse_ip(dst),
        protocol=Protocol.UDP,
        udp=UdpData(sport=sport, dport=dport, payload=payload),
        ttl=ttl,
    )


def make_reply(request: Packet, payload: bytes, src: "str | IPAddress | None" = None) -> Packet:
    """Build the UDP reply to ``request``, swapping the 5-tuple.

    ``src`` overrides the reply's source address. A *transparent*
    interceptor must pass the original destination here — the paper notes
    (§2) that responses arrive "with the source address spoofed to be
    that of the target resolver; if not, the response would be rejected".
    """
    assert request.udp is not None
    return make_udp(
        src=parse_ip(src) if src is not None else request.dst,
        sport=request.udp.dport,
        dst=request.src,
        dport=request.udp.sport,
        payload=payload,
    )


def make_icmp_time_exceeded(offender: Packet, reporter: "str | IPAddress") -> Packet:
    """Build the ICMP Time Exceeded a router sends when TTL hits zero."""
    return Packet(
        src=parse_ip(reporter),
        dst=offender.src,
        protocol=Protocol.ICMP,
        icmp=IcmpData(IcmpType.TIME_EXCEEDED, quoted=offender),
    )


def make_icmp_port_unreachable(offender: Packet, reporter: "str | IPAddress") -> Packet:
    """Build the ICMP Port Unreachable for a closed UDP port."""
    return Packet(
        src=parse_ip(reporter),
        dst=offender.src,
        protocol=Protocol.ICMP,
        icmp=IcmpData(IcmpType.PORT_UNREACHABLE, quoted=offender),
    )
