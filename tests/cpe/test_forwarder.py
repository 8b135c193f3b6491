"""The embedded forwarder engine: relay, spoofing, id remapping."""

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import ExchangeStatus, MeasurementClient
from repro.atlas.scenario import ScenarioSpec, build_scenario
from repro.cpe.firmware import dnat_interceptor, honest_forwarder
from repro.cpe.forwarder import ForwarderEngine, UPSTREAM_PORT
from repro.dnswire import QType, RCode, make_query
from repro.dnswire.chaosnames import make_version_bind_query
from repro.resolvers.software import dnsmasq, silent_forwarder

from tests.conftest import make_spec
from tests.simstate import inject, trace_events


@pytest.fixture
def org():
    return organization_by_name("Ziggo")


def build(org, firmware, **kw):
    sc = build_scenario(make_spec(org, probe_id=200, firmware=firmware, **kw))
    return sc, MeasurementClient(sc.network, sc.host)


def traced(org, firmware, **kw):
    """:func:`build` with the packet trace on."""
    sc, client = build(org, firmware, **kw)
    sc.network.recorder.enabled = True
    return sc, client


def client_queries(sc) -> int:
    """Queries DNAT handed to the CPE's forwarder."""
    return len(trace_events(sc.network.recorder, "cpe", "intercept"))


def upstream_queries(sc) -> int:
    """Queries the CPE's forwarder relayed to its upstream."""
    return sum(
        e.detail.startswith("forwarder -> upstream")
        for e in trace_events(sc.network.recorder, "cpe", "forward")
    )


class TestEngineState:
    def test_upstream_selection(self):
        engine = ForwarderEngine(dnsmasq(), upstream_v4="10.0.0.1", upstream_v6="fd::1")
        assert str(engine.upstream_for_family(4)) == "10.0.0.1"
        assert str(engine.upstream_for_family(6)) == "fd::1"
        assert ForwarderEngine(dnsmasq()).upstream_for_family(4) is None

    def test_starts_with_no_pending_relays(self):
        engine = ForwarderEngine(dnsmasq())
        assert len(engine._pending) == 0


class TestRelay:
    def test_id_remapping_is_invisible(self, org):
        """The client's message id must be preserved end-to-end even
        though the forwarder uses its own id upstream."""
        sc, client = build(org, dnat_interceptor())
        result = client.exchange(
            "8.8.8.8", make_query("www.example.com.", QType.A, msg_id=0x1234)
        )
        assert result.response.msg_id == 0x1234

    def test_pending_cleared_after_relay(self, org):
        sc, client = build(org, dnat_interceptor())
        client.exchange("8.8.8.8", make_query("www.example.com.", QType.A, msg_id=1))
        assert len(sc.cpe.forwarder._pending) == 0

    def test_counters_increment(self, org):
        sc, client = traced(org, dnat_interceptor(software=dnsmasq()))
        client.exchange("8.8.8.8", make_query("www.example.com.", QType.A, msg_id=1))
        client.exchange("8.8.8.8", make_version_bind_query(msg_id=2))
        assert client_queries(sc) == 2
        assert upstream_queries(sc) == 1  # version.bind answered locally

    def test_chaos_answered_locally_never_forwarded(self, org):
        sc, client = traced(org, dnat_interceptor(software=dnsmasq("2.85")))
        result = client.exchange("1.1.1.1", make_version_bind_query(msg_id=3))
        assert result.response.txt_strings() == ["dnsmasq-2.85"]
        assert upstream_queries(sc) == 0

    def test_silent_forwarder_relays_version_bind(self, org):
        """The §6 limitation: software without a version.bind answer
        forwards it, exposing the *upstream's* string."""
        sc, client = traced(
            org,
            honest_forwarder(software=silent_forwarder(), wan_open=True),
        )
        result = client.exchange(sc.cpe_public_v4, make_version_bind_query(msg_id=4))
        # Ziggo's resolver personality answers something upstream.
        assert result.response is not None
        assert upstream_queries(sc) == 1

    def test_garbage_client_payload_dropped(self, org):
        sc, client = build(org, dnat_interceptor())
        sock = sc.host.open_socket()
        sock.sendto(b"junk", "8.8.8.8", 53)
        sc.network.run()
        assert len(sc.cpe.forwarder._pending) == 0

    def test_unexpected_upstream_response_dropped(self, org):
        sc, client = build(org, dnat_interceptor())
        # Inject a stray "upstream response" at the CPE with an unknown id.
        from repro.net import make_udp

        stray = make_query("x.example.", QType.A, msg_id=999).reply()
        pkt = make_udp(
            str(sc.isp_resolver.egress_address(4)),
            53,
            str(sc.cpe.wan_v4),
            UPSTREAM_PORT,
            stray.encode(),
        )
        inject(sc.network, "cpe", pkt)
        sc.network.run()  # must not crash


class TestCaseFidelity:
    """0x20-style case fidelity end-to-end: the echoed question keeps
    the client's exact spelling, and the answer section keeps the
    zone's own spelling — compression must never rewrite either to the
    other's case."""

    MIXED = "WwW.ExAmPlE.CoM."

    def assert_fidelity(self, client):
        result = client.exchange("8.8.8.8", make_query(self.MIXED, QType.A, msg_id=9))
        assert result.response.question.qname.to_text() == self.MIXED
        assert [rr.name.to_text() for rr in result.response.answers] == [
            "www.example.com."
        ]

    def test_clean_path(self, org):
        sc, client = build(org, honest_forwarder())
        self.assert_fidelity(client)

    def test_spoofed_interceptor_answer(self, org):
        sc, client = build(org, dnat_interceptor())
        self.assert_fidelity(client)


class TestRelayValidation:
    """A colliding 16-bit id alone must not get junk relayed: the
    response must also come from the configured upstream, from port 53,
    and answer the question actually asked."""

    QNAME = "www.example.com."

    def start_exchange(self, org, msg_id=0x7711, trace=False):
        """Send a client query through the interceptor and stop the sim
        at the first instant the upstream relay is pending."""
        sc = build_scenario(
            ScenarioSpec(
                probe=make_spec(org, probe_id=202, firmware=dnat_interceptor()),
                trace=trace,
            )
        )
        sock = sc.host.open_socket()
        sock.sendto(
            make_query(self.QNAME, QType.A, msg_id=msg_id).encode(), "8.8.8.8", 53
        )
        for _ in range(200):
            if sc.cpe.forwarder._pending:
                break
            sc.network.run(until=sc.network.now + 0.5)
        assert len(sc.cpe.forwarder._pending) == 1
        upstream_id = next(iter(sc.cpe.forwarder._pending))
        return sc, sock, upstream_id

    def inject_upstream(self, sc, src, sport, message):
        from repro.net import make_udp

        inject(
            sc.network,
            "cpe",
            make_udp(src, sport, str(sc.cpe.wan_v4), UPSTREAM_PORT, message.encode()),
        )

    def finish(self, sc, sock, msg_id):
        """Run to quiescence; return the decoded datagrams the client got."""
        from repro.dnswire import decode_or_none

        sc.network.run()
        return [decode_or_none(d.payload) for d in sock.drain()]

    def test_wrong_source_not_relayed(self, org):
        """Off-path junk that guesses the upstream id but not the
        upstream address is dropped; the genuine answer still relays."""
        sc, sock, upstream_id = self.start_exchange(org, trace=True)
        junk = make_query(self.QNAME, QType.A, msg_id=upstream_id).reply(
            rcode=RCode.REFUSED
        )
        self.inject_upstream(sc, "203.0.113.66", 53, junk)
        sc.network.run(until=sc.network.now + 0.01)
        # The junk must not have consumed the pending entry...
        assert len(sc.cpe.forwarder._pending) == 1
        responses = self.finish(sc, sock, 0x7711)
        # ...so the client sees exactly the genuine NOERROR answer.
        assert [r.rcode for r in responses] == [int(RCode.NOERROR)]
        assert responses[0].msg_id == 0x7711
        drops = [
            e
            for e in sc.network.recorder.events
            if "response from non-upstream source" in e.detail
        ]
        assert drops

    def test_wrong_sport_not_relayed(self, org):
        """Right address, wrong port: still not the upstream resolver."""
        sc, sock, upstream_id = self.start_exchange(org)
        upstream = str(sc.cpe.forwarder.upstream_for_family(4))
        junk = make_query(self.QNAME, QType.A, msg_id=upstream_id).reply(
            rcode=RCode.REFUSED
        )
        self.inject_upstream(sc, upstream, 5353, junk)
        sc.network.run(until=sc.network.now + 0.01)
        assert len(sc.cpe.forwarder._pending) == 1
        responses = self.finish(sc, sock, 0x7711)
        assert [r.rcode for r in responses] == [int(RCode.NOERROR)]

    def test_question_mismatch_not_relayed(self, org):
        """A blind spoofer hitting id, source and port still loses if
        it answers a question the forwarder never asked."""
        sc, sock, upstream_id = self.start_exchange(org)
        upstream = str(sc.cpe.forwarder.upstream_for_family(4))
        junk = make_query("evil.example.", QType.A, msg_id=upstream_id).reply(
            rcode=RCode.NOERROR
        )
        self.inject_upstream(sc, upstream, 53, junk)
        sc.network.run(until=sc.network.now + 0.01)
        assert len(sc.cpe.forwarder._pending) == 1
        responses = self.finish(sc, sock, 0x7711)
        assert len(responses) == 1
        assert responses[0].question.qname.to_text() == self.QNAME


class TestSpoofing:
    def test_hijacked_reply_claims_original_destination(self, org):
        """Validated by the stub accepting it: the UDP exchange rejects
        any response whose source differs from the queried address."""
        sc, client = build(org, dnat_interceptor())
        for target in ("8.8.8.8", "1.1.1.1", "9.9.9.9", "208.67.222.222"):
            result = client.exchange(
                target, make_query("example.com.", QType.A, msg_id=7)
            )
            assert result.status is not ExchangeStatus.TIMEOUT, target

    def test_direct_query_not_spoofed(self, org):
        sc, client = build(org, dnat_interceptor())
        result = client.exchange(sc.cpe_public_v4, make_version_bind_query(msg_id=8))
        assert result.status is not ExchangeStatus.TIMEOUT

    def test_trace_marks_spoofed_replies(self, org):
        sc = build_scenario(
            ScenarioSpec(
                probe=make_spec(org, probe_id=201, firmware=dnat_interceptor()),
                trace=True,
            )
        )
        client = MeasurementClient(sc.network, sc.host)
        client.exchange("8.8.8.8", make_query("example.com.", QType.A, msg_id=9))
        spoofed = [
            e for e in sc.network.recorder.events if "spoofed source" in e.detail
        ]
        assert spoofed
