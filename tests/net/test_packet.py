"""Packet construction and rewriting."""

import dataclasses
import ipaddress

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.packet import (
    DEFAULT_TTL,
    IcmpData,
    IcmpType,
    Packet,
    Protocol,
    UdpData,
    _build,
    make_icmp_time_exceeded,
    make_reply,
    make_udp,
)


@pytest.fixture
def udp_packet():
    return make_udp("192.168.1.100", 40000, "8.8.8.8", 53, b"payload")


class TestConstruction:
    def test_make_udp(self, udp_packet):
        assert udp_packet.protocol is Protocol.UDP
        assert udp_packet.ttl == DEFAULT_TTL
        assert udp_packet.udp.sport == 40000
        assert udp_packet.family == 4

    def test_family_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_udp("192.168.1.1", 1, "2001:db8::1", 53, b"")

    def test_udp_without_data_rejected(self):
        with pytest.raises(ValueError):
            Packet(src="1.1.1.1", dst="2.2.2.2", protocol=Protocol.UDP)

    def test_icmp_without_data_rejected(self):
        with pytest.raises(ValueError):
            Packet(src="1.1.1.1", dst="2.2.2.2", protocol=Protocol.ICMP)

    def test_bad_port_rejected(self):
        with pytest.raises(ValueError):
            UdpData(sport=0, dport=53, payload=b"")
        with pytest.raises(ValueError):
            UdpData(sport=1, dport=70000, payload=b"")

    def test_packets_compare_by_value(self):
        a = make_udp("1.1.1.1", 1, "2.2.2.2", 2, b"")
        b = make_udp("1.1.1.1", 1, "2.2.2.2", 2, b"")
        assert a == b and hash(a) == hash(b)
        assert a != a.decrement_ttl()


class TestRewriting:
    def test_decrement_ttl(self, udp_packet):
        child = udp_packet.decrement_ttl()
        assert child.ttl == udp_packet.ttl - 1
        assert udp_packet.ttl == DEFAULT_TTL  # original untouched

    def test_with_dst_dnat(self, udp_packet):
        rewritten = udp_packet.with_dst("10.0.0.1", dport=5353)
        assert str(rewritten.dst) == "10.0.0.1"
        assert rewritten.udp.dport == 5353
        assert rewritten.udp.payload == udp_packet.udp.payload
        # source untouched
        assert rewritten.src == udp_packet.src

    def test_with_src_snat(self, udp_packet):
        rewritten = udp_packet.with_src("24.0.4.1", sport=50001)
        assert str(rewritten.src) == "24.0.4.1"
        assert rewritten.udp.sport == 50001
        assert rewritten.dst == udp_packet.dst

    def test_with_dst_keeps_port_when_not_given(self, udp_packet):
        assert udp_packet.with_dst("10.0.0.1").udp.dport == 53


class TestReplies:
    def test_make_reply_swaps_tuple(self, udp_packet):
        reply = make_reply(udp_packet, b"answer")
        assert reply.src == udp_packet.dst
        assert reply.dst == udp_packet.src
        assert reply.udp.sport == udp_packet.udp.dport
        assert reply.udp.dport == udp_packet.udp.sport
        assert reply.udp.payload == b"answer"

    def test_make_reply_spoofed_source(self, udp_packet):
        """An interceptor must claim the original destination (§2)."""
        reply = make_reply(udp_packet, b"spoofed", src="8.8.8.8")
        assert str(reply.src) == "8.8.8.8"

    def test_make_reply_explicit_other_source(self, udp_packet):
        reply = make_reply(udp_packet, b"x", src="10.0.0.1")
        assert str(reply.src) == "10.0.0.1"


class TestIcmp:
    def test_time_exceeded_quotes_offender(self, udp_packet):
        icmp = make_icmp_time_exceeded(udp_packet, "24.0.0.2")
        assert icmp.protocol is Protocol.ICMP
        assert icmp.icmp.icmp_type is IcmpType.TIME_EXCEEDED
        assert icmp.icmp.quoted is udp_packet
        assert icmp.dst == udp_packet.src
        assert str(icmp.src) == "24.0.0.2"

    def test_describe(self, udp_packet):
        text = udp_packet.describe()
        assert "UDP" in text and "8.8.8.8:53" in text
        icmp = make_icmp_time_exceeded(udp_packet, "1.2.3.4")
        assert "time-exceeded" in icmp.describe()


# -- the builder against the dataclass machinery it stands in for ----------
#
# Every helper must give the packet ``Packet(...)`` or
# ``dataclasses.replace`` would give, or refuse it with the same
# ValueError.

addresses = st.one_of(
    st.integers(0, 2**32 - 1).map(ipaddress.IPv4Address),
    st.integers(0, 2**128 - 1).map(ipaddress.IPv6Address),
)
ports = st.one_of(
    st.integers(1, 0xFFFF), st.integers(-2, 0), st.integers(0x10000, 0x10002)
)
payloads = st.binary(max_size=24)
ttls = st.integers(0, 255)


def _outcome(build):
    """("ok", every field) or ("error", the ValueError's text)."""
    try:
        packet = build()
    except ValueError as exc:
        return ("error", str(exc))
    fields = dataclasses.fields(Packet)
    return ("ok", {f.name: getattr(packet, f.name) for f in fields})


def _same(fast, reference):
    outcome = _outcome(fast)
    assert outcome == _outcome(reference)
    return outcome[0] == "ok"


@st.composite
def udp_packets(draw):
    """A valid UDP packet, up to two hops deep."""
    src = draw(addresses)
    dst = draw(addresses.filter(lambda a: a.version == src.version))
    sport, dport = draw(st.integers(1, 0xFFFF)), draw(st.integers(1, 0xFFFF))
    ttl = draw(st.integers(1, 255))
    packet = make_udp(src, sport, dst, dport, draw(payloads), ttl=ttl)
    for _ in range(draw(st.integers(0, 2))):
        packet = packet.decrement_ttl()
    return packet


def _rewrites(parent, rewrite, reference):
    """``rewrite(parent)`` equals ``reference(parent)`` and leaves the
    parent as it was."""
    before = dict(parent.__dict__)
    _same(lambda: rewrite(parent), lambda: reference(parent))
    assert parent.__dict__ == before


class TestBuilderMatchesDataclass:
    @settings(max_examples=200)
    @given(addresses, addresses, st.sampled_from(Protocol), st.booleans(),
           st.booleans(), ttls)
    def test_build(self, src, dst, protocol, with_udp, with_icmp, ttl):
        udp = UdpData(1, 53, b"q") if with_udp else None
        icmp = IcmpData(IcmpType.TIME_EXCEEDED) if with_icmp else None
        _same(
            lambda: _build(src, dst, protocol, udp, icmp, ttl),
            lambda: Packet(
                src=src, dst=dst, protocol=protocol, udp=udp, icmp=icmp, ttl=ttl
            ),
        )

    @settings(max_examples=200)
    @given(addresses, ports, addresses, ports, payloads, ttls)
    def test_make_udp(self, src, sport, dst, dport, payload, ttl):
        _same(
            lambda: make_udp(str(src), sport, dst, dport, payload, ttl=ttl),
            lambda: Packet(
                src=str(src),
                dst=dst,
                protocol=Protocol.UDP,
                udp=UdpData(sport=sport, dport=dport, payload=payload),
                ttl=ttl,
            ),
        )

    @settings(max_examples=150)
    @given(udp_packets(), payloads, st.one_of(st.none(), addresses))
    def test_make_reply(self, request, payload, src):
        _same(
            lambda: make_reply(request, payload, src=src),
            lambda: Packet(
                src=src if src is not None else request.dst,
                dst=request.src,
                protocol=Protocol.UDP,
                udp=UdpData(request.udp.dport, request.udp.sport, payload),
            ),
        )

    @settings(max_examples=150)
    @given(udp_packets(), addresses)
    def test_make_icmp_time_exceeded(self, offender, reporter):
        _same(
            lambda: make_icmp_time_exceeded(offender, str(reporter)),
            lambda: Packet(
                src=reporter,
                dst=offender.src,
                protocol=Protocol.ICMP,
                icmp=IcmpData(IcmpType.TIME_EXCEEDED, quoted=offender),
            ),
        )

    @settings(max_examples=200)
    @given(udp_packets(), addresses, st.one_of(st.none(), ports))
    def test_with_src(self, parent, src, sport):
        _rewrites(
            parent,
            lambda p: p.with_src(str(src), sport=sport),
            lambda p: dataclasses.replace(
                p,
                src=src,
                udp=p.udp if sport is None else dataclasses.replace(p.udp, sport=sport),
            ),
        )

    @settings(max_examples=200)
    @given(udp_packets(), addresses, st.one_of(st.none(), ports))
    def test_with_dst(self, parent, dst, dport):
        _rewrites(
            parent,
            lambda p: p.with_dst(dst, dport=dport),
            lambda p: dataclasses.replace(
                p,
                dst=dst,
                udp=p.udp if dport is None else dataclasses.replace(p.udp, dport=dport),
            ),
        )

    @settings(max_examples=100)
    @given(udp_packets(), st.integers(0, 30))
    def test_truncated(self, parent, length):
        _rewrites(
            parent,
            lambda p: p.truncated(length),
            lambda p: dataclasses.replace(
                p, udp=dataclasses.replace(p.udp, payload=p.udp.payload[:length])
            ),
        )

    @settings(max_examples=100)
    @given(udp_packets())
    def test_decrement_ttl(self, parent):
        _rewrites(
            parent,
            lambda p: p.decrement_ttl(),
            lambda p: dataclasses.replace(p, ttl=p.ttl - 1),
        )

    @settings(max_examples=100)
    @given(udp_packets(), addresses, udp_packets())
    def test_with_quoted(self, offender, dst, quoted):
        parent = make_icmp_time_exceeded(offender, offender.dst)
        _rewrites(
            parent,
            lambda p: p.with_quoted(dst, quoted),
            lambda p: dataclasses.replace(
                p, dst=dst, icmp=IcmpData(p.icmp.icmp_type, quoted=quoted)
            ),
        )

    def test_truncating_icmp_refused(self, udp_packet):
        icmp = make_icmp_time_exceeded(udp_packet, "1.2.3.4")
        with pytest.raises(ValueError, match="only UDP"):
            icmp.truncated(1)
        with pytest.raises(ValueError, match="only ICMP"):
            udp_packet.with_quoted("1.2.3.4", udp_packet)
