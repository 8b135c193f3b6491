"""Retry policies and the udp53_exchange deadline/accounting boundaries."""

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import ExchangeStatus
from repro.atlas.transport import udp53_exchange
from repro.atlas.retry import (
    ExponentialBackoffRetry,
    FixedIntervalRetry,
    RetryPolicy,
    default_chaos_retry,
)
from repro.atlas.scenario import ScenarioSpec, build_scenario
from repro.dnswire import QType, make_query
from repro.net import make_udp
from repro.net.impairment import LinkProfile

from tests.conftest import make_spec
from tests.simstate import inject, make_id_server_query


@pytest.fixture
def org():
    return organization_by_name("Comcast")


class TestPolicies:
    def test_base_policy_never_retries(self):
        assert RetryPolicy().delays_ms() == ()
        assert RetryPolicy(retries=0).delays_ms(msg_id=42) == ()

    def test_fixed_interval_schedule(self):
        policy = FixedIntervalRetry(retries=3, interval_ms=250.0)
        assert policy.delays_ms() == (250.0, 250.0, 250.0)

    def test_backoff_grows_and_caps(self):
        policy = ExponentialBackoffRetry(
            retries=6, base_ms=100.0, factor=2.0, max_interval_ms=800.0, jitter=0.0
        )
        assert policy.delays_ms() == (100.0, 200.0, 400.0, 800.0, 800.0, 800.0)

    def test_jitter_is_bounded_and_deterministic(self):
        policy = ExponentialBackoffRetry(retries=4, base_ms=100.0, jitter=0.25)
        first = policy.delays_ms(msg_id=7)
        assert first == policy.delays_ms(msg_id=7)  # same msg_id, same draw
        assert first != policy.delays_ms(msg_id=8)  # decorrelated across ids
        ideal = ExponentialBackoffRetry(
            retries=4, base_ms=100.0, jitter=0.0
        ).delays_ms()
        for drawn, base in zip(first, ideal):
            assert 0.75 * base <= drawn <= 1.25 * base

    def test_default_chaos_retry_has_budget(self):
        assert len(default_chaos_retry().delays_ms()) == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retries": -1},
            {"base_ms": 0.0},
            {"factor": 0.5},
            {"jitter": 1.0},
            {"max_interval_ms": 0.0},
        ],
    )
    def test_invalid_backoff_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExponentialBackoffRetry(**kwargs)

    def test_fixed_interval_rejected(self):
        with pytest.raises(ValueError):
            FixedIntervalRetry(retries=1, interval_ms=0.0)


class TestDeadlineBoundaries:
    def test_answer_exactly_at_deadline_accepted(self, org):
        """An answer whose arrival coincides with the deadline tick is
        still classified — the exchange drains the socket after running
        to the horizon, so time==deadline is inside the budget."""
        sc = build_scenario(make_spec(org, probe_id=910))
        query = make_query("example.com.", QType.A, msg_id=50)
        sock_port = sc.host._next_port
        answer = make_udp(
            "198.51.100.99", 53, "192.168.1.100", sock_port, query.reply().encode()
        )
        inject(sc.network, "host", answer, delay_ms=1000.0)
        result = udp53_exchange(
            sc.network, sc.host, "198.51.100.99", query, timeout_ms=1000.0
        )
        assert result.status is not ExchangeStatus.TIMEOUT
        assert result.rtt_ms == 1000.0

    def test_retransmission_never_scheduled_past_deadline(self, org):
        """A retry whose horizon lands past the deadline is suppressed:
        budget 1000ms with 600ms intervals yields the original send plus
        exactly one retransmission (at 600ms), never one at 1200ms."""
        sc = build_scenario(ScenarioSpec(probe=make_spec(org, probe_id=911), trace=True))
        before = sc.network.now
        result = udp53_exchange(
            sc.network,
            sc.host,
            "198.51.100.99",  # dead address: nothing answers
            make_query("example.com.", QType.A, msg_id=51),
            timeout_ms=1000.0,
            retry=FixedIntervalRetry(retries=5, interval_ms=600.0),
        )
        assert result.status is ExchangeStatus.TIMEOUT
        assert result.attempts == 2
        transmissions = [
            e
            for e in sc.network.recorder.events
            if e.node == "host" and e.action == "send" and e.detail.startswith("socket")
        ]
        assert len(transmissions) == 2
        assert sc.network.now == before + 1000.0  # clock stops at deadline

    def test_policy_plugs_into_exchange(self, org):
        """An ExponentialBackoffRetry drives the same retransmission
        machinery as FixedIntervalRetry."""
        sc = build_scenario(ScenarioSpec(probe=make_spec(org, probe_id=912), trace=True))
        policy = ExponentialBackoffRetry(
            retries=3, base_ms=200.0, factor=2.0, jitter=0.0
        )
        result = udp53_exchange(
            sc.network,
            sc.host,
            "198.51.100.99",
            make_query("example.com.", QType.A, msg_id=52),
            timeout_ms=5000.0,
            retry=policy,
        )
        assert result.status is ExchangeStatus.TIMEOUT
        assert result.attempts == 4  # original + all three backoff sends


class TestDuplicationAccounting:
    def duplicating_scenario(self, org, probe_id):
        spec = ScenarioSpec(
            probe=make_spec(org, probe_id=probe_id),
            impairment=LinkProfile(duplicate=0.99),
        )
        return build_scenario(spec)

    def test_duplicated_answer_not_double_counted(self, org):
        """Link-level duplication delivers the same answer twice; the
        exchange must report one attempt, one RTT sample, and must not
        claim query replication."""
        sc = self.duplicating_scenario(org, probe_id=913)
        result = udp53_exchange(
            sc.network, sc.host, "1.1.1.1", make_id_server_query(msg_id=60)
        )
        assert result.status is not ExchangeStatus.TIMEOUT
        assert result.attempts == 1  # no retransmission happened
        assert len(result.accepted) >= 2  # the duplicate did arrive
        assert not result.replicated  # ...but identical copies don't count
        assert result.response is result.accepted[0]
        assert result.rtt_ms is not None

    def test_duplication_single_rtt_sample_in_metrics(self, org):
        from repro.core.metrics import MetricsRegistry, use_registry

        registry = MetricsRegistry(trace="off")
        with use_registry(registry):
            sc = self.duplicating_scenario(org, probe_id=914)
            udp53_exchange(
                sc.network, sc.host, "1.1.1.1", make_id_server_query(msg_id=61)
            )
        histogram = registry.histograms["exchange.rtt_ms.udp"]
        assert histogram.count == 1
