"""Simulated IP packets: UDP datagrams and ICMP messages.

Packets are immutable; every rewriting device (NAT, DNAT interceptor,
spoofing middlebox) produces a *new* packet through the ``with_*`` and
``truncated`` helpers. That makes packet traces trustworthy: a captured
packet can never be mutated after the fact by a later hop. Packets
compare by value, so two runs of one probe record equal trace events.

Packets are built on every hop, so the builders (``make_udp``,
``make_reply``, ``make_icmp_time_exceeded``) and the rewrite helpers
fill a new packet's fields, and its UDP data's, directly instead of
going through the dataclass ``__init__`` or ``dataclasses.replace``.
They run the same checks ``__post_init__`` runs (:func:`_check`,
:func:`_check_ports`), so a packet built either way is accepted or
refused alike.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .addr import IPAddress, parse_ip

#: Default initial TTL, matching common OS defaults.
DEFAULT_TTL = 64


class Protocol(enum.Enum):
    UDP = "udp"
    ICMP = "icmp"


class IcmpType(enum.Enum):
    """The ICMP messages the simulator generates."""

    TIME_EXCEEDED = "time-exceeded"


@dataclass(frozen=True)
class UdpData:
    """UDP header + payload."""

    sport: int
    dport: int
    payload: bytes

    def __post_init__(self) -> None:
        _check_ports(self.sport, self.dport)


def _check_ports(sport: int, dport: int) -> None:
    for port in (sport, dport):
        if not 0 < port <= 0xFFFF:
            raise ValueError(f"bad port: {port}")


def _udp(sport: int, dport: int, payload: bytes) -> UdpData:
    """New UDP data without the dataclass ``__init__``, after the same
    port check ``__post_init__`` runs."""
    _check_ports(sport, dport)
    udp = object.__new__(UdpData)
    state = udp.__dict__
    state["sport"] = sport
    state["dport"] = dport
    state["payload"] = payload
    return udp


@dataclass(frozen=True)
class IcmpData:
    """ICMP message quoting the packet that triggered it."""

    icmp_type: IcmpType
    quoted: Optional["Packet"] = None


def _check(
    src: IPAddress,
    dst: IPAddress,
    protocol: Protocol,
    udp: Optional[UdpData],
    icmp: Optional[IcmpData],
) -> None:
    """The invariants of every packet, however it was built."""
    if src.version != dst.version:
        raise ValueError("src/dst address family mismatch")
    if protocol is Protocol.UDP and udp is None:
        raise ValueError("UDP packet without UDP data")
    if protocol is Protocol.ICMP and icmp is None:
        raise ValueError("ICMP packet without ICMP data")


@dataclass(frozen=True)
class Packet:
    """A simulated IP packet."""

    src: IPAddress
    dst: IPAddress
    protocol: Protocol
    udp: Optional[UdpData] = None
    icmp: Optional[IcmpData] = None
    ttl: int = DEFAULT_TTL

    def __post_init__(self) -> None:
        object.__setattr__(self, "src", parse_ip(self.src))
        object.__setattr__(self, "dst", parse_ip(self.dst))
        _check(self.src, self.dst, self.protocol, self.udp, self.icmp)

    @property
    def family(self) -> int:
        return self.src.version

    # -- rewriting helpers -------------------------------------------------

    def decrement_ttl(self) -> "Packet":
        # Once per router hop, and every field but ttl carries over from
        # this (already checked) packet, so even _build's check is skipped.
        child = object.__new__(Packet)
        state = child.__dict__
        state.update(self.__dict__)
        state["ttl"] = self.ttl - 1
        return child

    def with_dst(self, dst: "str | IPAddress", dport: int | None = None) -> "Packet":
        """DNAT rewrite: new destination address (and optionally port)."""
        udp = self.udp
        if dport is not None and udp is not None:
            udp = _udp(udp.sport, dport, udp.payload)
        return self._rewrite(self.src, parse_ip(dst), udp, self.icmp)

    def with_src(self, src: "str | IPAddress", sport: int | None = None) -> "Packet":
        """SNAT rewrite: new source address (and optionally port)."""
        udp = self.udp
        if sport is not None and udp is not None:
            udp = _udp(sport, udp.dport, udp.payload)
        return self._rewrite(parse_ip(src), self.dst, udp, self.icmp)

    def with_quoted(self, dst: "str | IPAddress", quoted: "Packet") -> "Packet":
        """ICMP un-NAT rewrite: new destination, the same message quoting
        ``quoted`` (the offender as its LAN host sent it)."""
        if self.icmp is None:
            raise ValueError("only ICMP packets quote a packet")
        icmp = IcmpData(self.icmp.icmp_type, quoted)
        return self._rewrite(self.src, parse_ip(dst), self.udp, icmp)

    def truncated(self, length: int) -> "Packet":
        """Damage rewrite: keep only the first ``length`` payload bytes
        (link impairment — the receiver sees a short, undecodable datagram)."""
        udp = self.udp
        if udp is None:
            raise ValueError("only UDP packets can be truncated")
        udp = _udp(udp.sport, udp.dport, udp.payload[:length])
        return self._rewrite(self.src, self.dst, udp, self.icmp)

    def _rewrite(
        self,
        src: IPAddress,
        dst: IPAddress,
        udp: Optional[UdpData],
        icmp: Optional[IcmpData],
    ) -> "Packet":
        # The child keeps protocol and ttl.
        return _build(src, dst, self.protocol, udp, icmp, self.ttl)

    def describe(self) -> str:
        if self.protocol is Protocol.UDP:
            assert self.udp is not None
            return (
                f"UDP {self.src}:{self.udp.sport} -> {self.dst}:{self.udp.dport} "
                f"ttl={self.ttl} len={len(self.udp.payload)}"
            )
        assert self.icmp is not None
        return f"ICMP {self.icmp.icmp_type.value} {self.src} -> {self.dst} ttl={self.ttl}"


def _build(
    src: IPAddress,
    dst: IPAddress,
    protocol: Protocol,
    udp: Optional[UdpData],
    icmp: Optional[IcmpData],
    ttl: int,
) -> Packet:
    """A new packet from already-parsed fields, without the dataclass
    ``__init__``: behind every builder and rewrite in this module but
    ``decrement_ttl``."""
    _check(src, dst, protocol, udp, icmp)
    packet = object.__new__(Packet)
    state = packet.__dict__
    state["src"] = src
    state["dst"] = dst
    state["protocol"] = protocol
    state["udp"] = udp
    state["icmp"] = icmp
    state["ttl"] = ttl
    return packet


def make_udp(
    src: "str | IPAddress",
    sport: int,
    dst: "str | IPAddress",
    dport: int,
    payload: bytes,
    ttl: int = DEFAULT_TTL,
) -> Packet:
    """Build a UDP packet."""
    src, dst = parse_ip(src), parse_ip(dst)
    udp = _udp(sport, dport, payload)
    return _build(src, dst, Protocol.UDP, udp, None, ttl)


def make_reply(request: Packet, payload: bytes, src: "str | IPAddress | None" = None) -> Packet:
    """Build the UDP reply to ``request``, swapping the 5-tuple.

    ``src`` overrides the reply's source address. A *transparent*
    interceptor must pass the original destination here — the paper notes
    (§2) that responses arrive "with the source address spoofed to be
    that of the target resolver; if not, the response would be rejected".
    """
    assert request.udp is not None
    reply_src = parse_ip(src) if src is not None else request.dst
    udp = _udp(request.udp.dport, request.udp.sport, payload)
    return _build(reply_src, request.src, Protocol.UDP, udp, None, DEFAULT_TTL)


def make_icmp_time_exceeded(offender: Packet, reporter: "str | IPAddress") -> Packet:
    """Build the ICMP Time Exceeded a router sends when TTL hits zero."""
    src = parse_ip(reporter)
    icmp = IcmpData(IcmpType.TIME_EXCEEDED, quoted=offender)
    return _build(src, offender.src, Protocol.ICMP, None, icmp, DEFAULT_TTL)
