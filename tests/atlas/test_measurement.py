"""The measurement client: validation, timeouts, replication, ICMP."""

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import ExchangeStatus, MeasurementClient
from repro.atlas.retry import FixedIntervalRetry
from repro.atlas.transport import udp53_exchange
from repro.atlas.scenario import ScenarioSpec, build_scenario
from repro.cpe.firmware import dnat_interceptor, honest_router
from repro.dnswire import QType, make_query
from repro.dnswire.chaosnames import make_id_server_query
from repro.interceptors.policy import InterceptMode, intercept_all
from repro.net import make_udp
from repro.net.impairment import LinkProfile

from tests.conftest import make_spec


@pytest.fixture
def org():
    return organization_by_name("BT")


@pytest.fixture
def clean(org):
    return build_scenario(make_spec(org, probe_id=400))


class TestValidation:
    def test_accepts_valid_response(self, clean):
        result = udp53_exchange(
            clean.network, clean.host, "1.1.1.1", make_id_server_query(msg_id=1)
        )
        assert result.status is not ExchangeStatus.TIMEOUT
        assert result.rtt_ms is not None and result.rtt_ms > 0

    def test_rejects_wrong_id(self, clean):
        """An off-path attacker who guesses the port but not the id loses."""
        query = make_id_server_query(msg_id=10)
        sock = clean.host.open_socket()
        sock.sendto(query.encode(), "1.1.1.1", 53)
        forged = query.with_id(11).reply()
        clean.network.inject(
            "host",
            make_udp("1.1.1.1", 53, "192.168.1.100", sock.port, forged.encode()),
        )
        clean.network.run()
        datagrams = sock.drain()
        sock.close()
        from repro.dnswire import decode_or_none

        ids = {decode_or_none(d.payload).msg_id for d in datagrams}
        assert 11 in ids  # the forgery arrived...
        # ...but udp53_exchange would have rejected it; verify via the API:
        result = udp53_exchange(
            clean.network, clean.host, "1.1.1.1", make_id_server_query(msg_id=12)
        )
        assert result.response.msg_id == 12

    def test_rejects_wrong_source(self, clean):
        """A response from an address other than the one queried is
        rejected — the reason interceptors must spoof (§2)."""
        query = make_id_server_query(msg_id=20)

        # Deliver a response claiming to be from a different resolver.
        class Injector:
            def __call__(self):
                pass

        sock_port_holder = {}

        import repro.atlas.measurement as m

        # Use the real exchange but inject a competing wrong-source answer
        # right after the query is sent.
        sock = clean.host.open_socket()
        sock.sendto(query.encode(), "1.1.1.1", 53)
        wrong_src = make_udp(
            "9.9.9.9", 53, "192.168.1.100", sock.port, query.reply().encode()
        )
        clean.network.inject("host", wrong_src)
        clean.network.run()
        sock.close()
        result = udp53_exchange(
            clean.network, clean.host, "1.1.1.1", make_id_server_query(msg_id=21)
        )
        assert str(result.destination) == "1.1.1.1"
        assert result.response is not None

    def test_rejected_datagrams_recorded(self, org):
        sc = build_scenario(make_spec(org, probe_id=401))
        # Craft an exchange where a wrong-source datagram arrives: query a
        # dead address while injecting a fake answer from elsewhere.
        query = make_query("example.com.", QType.A, msg_id=30)
        sock_port = sc.host._next_port  # the port udp53_exchange will use
        fake = make_udp(
            "203.0.113.99", 53, "192.168.1.100", sock_port, query.reply().encode()
        )
        sc.network.inject("host", fake, delay_ms=10.0)
        result = udp53_exchange(sc.network, sc.host, "198.51.100.99", query)
        assert result.status is ExchangeStatus.TIMEOUT
        assert len(result.rejected) == 1


class TestTimeouts:
    def test_unreachable_destination_times_out(self, clean):
        result = udp53_exchange(
            clean.network,
            clean.host,
            "203.0.113.99",
            make_query("example.com.", QType.A, msg_id=1),
        )
        assert result.status is ExchangeStatus.TIMEOUT
        assert result.response is None
        assert result.rcode is None

    def test_simulated_clock_advances_past_timeout(self, clean):
        before = clean.network.now
        udp53_exchange(
            clean.network,
            clean.host,
            "203.0.113.99",
            make_query("example.com.", QType.A, msg_id=2),
            timeout_ms=750.0,
        )
        assert clean.network.now >= before + 750.0

    def test_socket_closed_after_exchange(self, clean):
        port_before = clean.host._next_port
        udp53_exchange(
            clean.network, clean.host, "1.1.1.1", make_id_server_query(msg_id=3)
        )
        assert len(clean.host._sockets) == 0


class TestReplication:
    def test_replicated_exchange_reports_both(self, org):
        sc = build_scenario(
            make_spec(
                org,
                probe_id=402,
                middlebox_policies=[intercept_all(mode=InterceptMode.REPLICATE)],
            )
        )
        result = udp53_exchange(
            sc.network, sc.host, "1.1.1.1", make_id_server_query(msg_id=1)
        )
        assert result.replicated
        assert result.response is result.accepted[0]


class ScriptedLossRng:
    """Deterministic stand-in for one link direction's impairment stream
    (``ImpairedLink.rng``): scripted values first (0.0 = drop when the
    link is lossy, 1.0 = pass), then pass."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0) if self.values else 1.0


def script_upstream_drop(network):
    """Drop the first cpe -> access crossing and nothing else."""
    network.set_link_profile("cpe", "access", LinkProfile(loss=0.5))
    network._impaired[("cpe", "access")].rng = ScriptedLossRng([0.0])
    network._impaired[("access", "cpe")].rng = ScriptedLossRng([])


class TestRetries:
    def test_rejected_datagram_does_not_cancel_retransmission(self, org):
        """A storm of off-path junk must not consume the retry budget.

        The old loop broke on the bare ``if sock.inbox`` check, so a
        single wrong-source datagram arriving early suppressed every
        remaining retransmission (1 send instead of 4) and the exchange
        gave up at the first retry horizon instead of the deadline."""
        sc = build_scenario(ScenarioSpec(probe=make_spec(org, probe_id=901), trace=True))
        query = make_query("example.com.", QType.A, msg_id=30)
        sock_port = sc.host._next_port  # the port udp53_exchange will use
        junk = make_udp(
            "203.0.113.99", 53, "192.168.1.100", sock_port, query.reply().encode()
        )
        sc.network.inject("host", junk, delay_ms=10.0)
        before = sc.network.now
        result = udp53_exchange(
            sc.network,
            sc.host,
            "198.51.100.99",  # dead address: nothing ever answers
            query,
            timeout_ms=5000.0,
            retry=FixedIntervalRetry(retries=3, interval_ms=500.0),
        )
        assert result.status is ExchangeStatus.TIMEOUT
        assert len(result.rejected) == 1
        transmissions = [
            e
            for e in sc.network.recorder.events
            if e.node == "host" and e.action == "send" and e.detail.startswith("socket")
        ]
        assert len(transmissions) == 1 + 3  # original + full retry budget
        assert sc.network.now - before >= 5000.0  # budget fully spent

    def test_rtt_measured_from_answering_transmission(self, org):
        """When the answer responds to a retransmission, RTT must be
        measured from that send — not inflated by the retry interval."""
        sc = build_scenario(make_spec(org, probe_id=902))
        # Make the upstream link lossy and script its per-direction
        # streams so exactly the first upstream crossing (the original
        # query) is dropped and every answer gets through.
        script_upstream_drop(sc.network)
        result = udp53_exchange(
            sc.network,
            sc.host,
            "1.1.1.1",
            make_id_server_query(msg_id=77),
            retry=FixedIntervalRetry(retries=2, interval_ms=500.0),
        )
        assert result.status is not ExchangeStatus.TIMEOUT
        assert result.attempts == 2  # the scripted drop cost one send
        assert result.response is not None
        # Path RTT is ~53ms; the buggy first-send arithmetic reported
        # ~553ms (one full retry interval too much).
        assert result.rtt_ms is not None
        assert 0 < result.rtt_ms < 500.0

    def test_junk_then_late_answer_still_accepted(self, org):
        """Junk early + loss on the first send: the exchange must keep
        retrying past the junk and accept the genuine late answer."""
        sc = build_scenario(make_spec(org, probe_id=903))
        script_upstream_drop(sc.network)
        query = make_id_server_query(msg_id=88)
        sock_port = sc.host._next_port
        junk = make_udp(
            "203.0.113.99", 53, "192.168.1.100", sock_port, query.reply().encode()
        )
        sc.network.inject("host", junk, delay_ms=5.0)
        result = udp53_exchange(
            sc.network,
            sc.host,
            "1.1.1.1",
            query,
            retry=FixedIntervalRetry(retries=2, interval_ms=500.0),
        )
        assert result.status is not ExchangeStatus.TIMEOUT
        assert result.attempts == 2  # the scripted drop cost one send
        assert len(result.rejected) == 1
        assert len(result.accepted) == 1
        assert result.rtt_ms is not None and result.rtt_ms < 500.0

    def test_no_retries_behaviour_unchanged(self, clean):
        """retries=0 keeps the classic single-shot semantics."""
        result = udp53_exchange(
            clean.network, clean.host, "1.1.1.1", make_id_server_query(msg_id=99)
        )
        assert result.status is not ExchangeStatus.TIMEOUT
        assert result.rtt_ms is not None and result.rtt_ms > 0

    def test_accepted_answer_stops_retrying(self, org):
        """Once a validated answer arrives, no further retransmissions."""
        sc = build_scenario(ScenarioSpec(probe=make_spec(org, probe_id=904), trace=True))
        result = udp53_exchange(
            sc.network,
            sc.host,
            "1.1.1.1",
            make_id_server_query(msg_id=101),
            retry=FixedIntervalRetry(retries=5, interval_ms=100.0),
        )
        assert result.status is not ExchangeStatus.TIMEOUT
        transmissions = [
            e
            for e in sc.network.recorder.events
            if e.node == "host" and e.action == "send" and e.detail.startswith("socket")
        ]
        # The answer lands (~53ms) before the first retry horizon
        # (100ms), so the entire retry budget goes unspent.
        assert len(transmissions) == 1


class TestClientWrapper:
    def test_family_capability(self, org):
        v4only = build_scenario(make_spec(org, probe_id=403, has_ipv6=False))
        client = MeasurementClient(v4only.network, v4only.host)
        assert client.can_reach_family(4)
        assert not client.can_reach_family(6)

    def test_custom_timeout(self, clean):
        client = MeasurementClient(clean.network, clean.host, timeout_ms=100.0)
        result = client.exchange(
            "203.0.113.99", make_query("example.com.", QType.A, msg_id=9)
        )
        assert result.status is ExchangeStatus.TIMEOUT

    def test_txt_answer_helper(self, clean):
        client = MeasurementClient(clean.network, clean.host)
        result = client.exchange("1.1.1.1", make_id_server_query(msg_id=5))
        assert result.txt_answer() is not None

    @pytest.mark.parametrize(
        "transport, options",
        [
            ("udp53", {}),
            ("dot", {"expected_identity": "dns.google"}),
            ("doh", {"expected_identity": "dns.google", "method": "GET"}),
            ("doq", {"expected_identity": "dns.google"}),
        ],
    )
    def test_resolve_answers_over_every_transport(self, clean, transport, options):
        client = MeasurementClient(clean.network, clean.host)
        result = client.resolve(
            make_id_server_query(msg_id=3), "8.8.8.8", transport, **options
        )
        assert result.status is ExchangeStatus.ANSWERED

    def test_resolve_rejects_unknown_transport(self, clean):
        client = MeasurementClient(clean.network, clean.host)
        with pytest.raises(ValueError, match="unknown transport"):
            client.resolve(make_id_server_query(msg_id=4), "8.8.8.8", "gopher")
