"""The metrics registry, snapshot merging, and pipeline instrumentation.

The load-bearing property under test: a metrics-enabled study produces
the *same* snapshot — field for field, byte for byte in canonical JSON —
no matter how many worker processes measured the fleet.
"""

import dataclasses
import json

import pytest

from repro.atlas.measurement import ExchangeStatus, MeasurementClient
from repro.atlas.population import generate_population
from repro.atlas.scenario import build_scenario
from repro.core.metrics import (
    DEFAULT_BOUNDS_MS,
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    active_registry,
    use_registry,
)
from repro.core.study import StudyConfig, run_pilot_study
from repro.dnswire import QType, make_query

from tests.conftest import make_spec


@pytest.fixture(scope="module")
def fleet():
    return generate_population(size=12, seed=77)


class TestHistogram:
    def test_observe_updates_aggregates(self):
        hist = Histogram()
        for value in (1.5, 40.0, 40.0, 900.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.mean_ms == pytest.approx((1.5 + 40 + 40 + 900) / 4)
        assert hist.min_us == 1500
        assert hist.max_us == 900_000
        assert sum(hist.bucket_counts) == 4

    def test_overflow_bucket(self):
        hist = Histogram()
        hist.observe(max(DEFAULT_BOUNDS_MS) + 1.0)
        assert hist.bucket_counts[-1] == 1

    def test_merge_equals_single_stream(self):
        values = [0.5, 3.0, 12.0, 75.0, 300.0, 9000.0]
        one = Histogram()
        for value in values:
            one.observe(value)
        left, right = Histogram(), Histogram()
        for value in values[:3]:
            left.observe(value)
        for value in values[3:]:
            right.observe(value)
        left.merge(right)
        assert left == one

    def test_merge_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            Histogram().merge(Histogram(bounds_ms=(1.0, 2.0)))

    def test_copy_is_independent(self):
        hist = Histogram()
        hist.observe(5.0)
        clone = hist.copy()
        clone.observe(10.0)
        assert hist.count == 1 and clone.count == 2

    def test_dict_round_trip(self):
        hist = Histogram()
        for value in (0.25, 17.0, 333.3):
            hist.observe(value)
        assert Histogram.from_dict(hist.to_dict()) == hist


class TestRegistry:
    def test_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        registry.observe_ms("rtt", 12.0)
        snap = registry.snapshot()
        assert snap.counters == {"a": 5}
        assert snap.histograms["rtt"].count == 1

    def test_trace_levels_gate_events(self):
        assert MetricsRegistry(trace="off").probe_events is False
        probe = MetricsRegistry(trace="probe")
        assert probe.probe_events and not probe.exchange_events
        exchange = MetricsRegistry(trace="exchange")
        assert exchange.probe_events and exchange.exchange_events
        with pytest.raises(ValueError):
            MetricsRegistry(trace="everything")

    def test_timer_accumulates_wall_time(self):
        registry = MetricsRegistry()
        with registry.timer("step"):
            pass
        with registry.timer("step"):
            pass
        assert registry.wall_ns["step"] >= 0
        assert "step" in registry.snapshot().wall_ms

    def test_snapshot_is_detached(self):
        registry = MetricsRegistry()
        registry.inc("n")
        registry.observe_ms("h", 1.0)
        snap = registry.snapshot()
        registry.inc("n")
        registry.observe_ms("h", 2.0)
        assert snap.counters == {"n": 1}
        assert snap.histograms["h"].count == 1

    def test_null_registry_is_inert(self):
        NULL_REGISTRY.inc("x")
        NULL_REGISTRY.observe_ms("y", 1.0)
        NULL_REGISTRY.event("z", detail=1)
        with NULL_REGISTRY.timer("t"):
            pass
        assert NULL_REGISTRY.enabled is False
        assert NULL_REGISTRY.snapshot() == MetricsSnapshot()

    def test_use_registry_scopes_the_ambient(self):
        assert active_registry() is NULL_REGISTRY
        registry = MetricsRegistry()
        with use_registry(registry):
            assert active_registry() is registry
        assert active_registry() is NULL_REGISTRY


class TestSnapshotMerge:
    def test_merge_sums_counters_and_orders_events(self):
        left = MetricsSnapshot(counters={"a": 1}, events=[{"kind": "p", "id": 1}])
        right = MetricsSnapshot(
            counters={"a": 2, "b": 5}, events=[{"kind": "p", "id": 2}]
        )
        left.merge(right)
        assert left.counters == {"a": 3, "b": 5}
        assert [event["id"] for event in left.events] == [1, 2]

    def test_merge_all_empty(self):
        assert MetricsSnapshot.merge_all([]) == MetricsSnapshot()

    def test_canonical_json_omits_wall_clock(self):
        snap = MetricsSnapshot(counters={"a": 1}, wall_ms={"t": 3.5})
        data = json.loads(snap.to_json())
        assert "wall_ms" not in data
        assert "wall_ms" in snap.to_dict(include_wall=True)

    def test_dict_round_trip(self):
        registry = MetricsRegistry()
        registry.inc("a", 2)
        registry.observe_ms("h", 9.0)
        registry.event("probe", probe_id=1)
        snap = registry.snapshot()
        restored = MetricsSnapshot.from_dict(
            json.loads(json.dumps(snap.to_dict(include_wall=True)))
        )
        assert restored.counters == snap.counters
        assert restored.histograms == snap.histograms
        assert restored.events == snap.events

    def test_render_mentions_counters(self):
        snap = MetricsSnapshot(counters={"study.probes.measured": 3})
        assert "study.probes.measured" in snap.render()


class TestStudyMetrics:
    def test_disabled_by_default(self, fleet):
        study = run_pilot_study(fleet[:2], StudyConfig(workers=1))
        assert study.metrics is None

    def test_serial_snapshot_contents(self, fleet):
        study = run_pilot_study(fleet, StudyConfig(workers=1, metrics=True))
        snap = study.metrics
        assert snap is not None
        assert snap.counters["study.probes.measured"] == len(fleet)
        assert snap.counters["sim.events_dispatched"] > 0
        assert any(name.startswith("locator.verdict.") for name in snap.counters)
        assert any(name.startswith("exchange.rtt_ms.") for name in snap.histograms)
        assert [event["kind"] for event in snap.events].count("probe") == sum(
            1 for record in study.records
        )

    def test_workers_agree_field_for_field(self, fleet):
        """The acceptance criterion: a 3-worker run's merged snapshot
        equals the serial snapshot on every deterministic field."""
        serial = run_pilot_study(
            fleet, StudyConfig(workers=1, seed=77, metrics=True)
        ).metrics
        parallel = run_pilot_study(
            fleet, StudyConfig(workers=3, seed=77, metrics=True)
        ).metrics
        assert parallel.counters == serial.counters
        assert parallel.histograms == serial.histograms
        assert parallel.events == serial.events
        assert parallel.to_json() == serial.to_json()

    def test_trace_off_suppresses_events(self, fleet):
        study = run_pilot_study(
            fleet[:3], StudyConfig(workers=1, metrics=True, trace="off")
        )
        assert study.metrics.events == []
        assert study.metrics.counters["study.probes.measured"] == 3

    def test_trace_exchange_adds_exchange_events(self, fleet):
        study = run_pilot_study(
            fleet[:3], StudyConfig(workers=1, metrics=True, trace="exchange")
        )
        kinds = {event["kind"] for event in study.metrics.events}
        assert kinds >= {"probe", "exchange"}

    def test_metrics_survive_export_round_trip(self, fleet):
        from repro.analysis.export import study_from_json, study_to_json

        study = run_pilot_study(fleet[:3], StudyConfig(workers=1, metrics=True))
        restored = study_from_json(study_to_json(study))
        assert restored.metrics is not None
        assert restored.metrics.counters == study.metrics.counters
        assert restored.metrics.histograms == study.metrics.histograms

    def test_ambient_registry_restored_after_study(self, fleet):
        run_pilot_study(fleet[:2], StudyConfig(workers=1, metrics=True))
        assert active_registry() is NULL_REGISTRY


class TestStudyConfigValidation:
    def test_defaults(self):
        config = StudyConfig()
        assert config.workers == 1
        assert config.metrics is False
        assert config.trace == "probe"

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            StudyConfig(trace="verbose")

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            StudyConfig(workers=0)

    def test_none_workers_means_auto(self):
        assert StudyConfig(workers=None).workers is None

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            StudyConfig().seed = 1


class TestExchangeResultSurface:
    """The unified UDP/DoT exchange result shape (satellite 1)."""

    def _client(self, comcast):
        scenario = build_scenario(make_spec(comcast, probe_id=31))
        return MeasurementClient(scenario.network, scenario.host)

    def test_udp_answered_shape(self, comcast):
        client = self._client(comcast)
        result = client.exchange(
            "8.8.8.8", make_query("o-o.myaddr.l.google.com.", QType.TXT, msg_id=7)
        )
        assert result.status is ExchangeStatus.ANSWERED
        assert result.answered and result.status is not ExchangeStatus.TIMEOUT
        assert result.transport == "udp"
        assert result.attempts >= 1
        assert result.rtt_ms is not None and result.rtt_ms > 0
        assert result.response.txt_strings()

    def test_udp_timeout_shape(self, comcast):
        client = self._client(comcast)
        result = client.exchange(
            "198.51.100.77", make_query("example.com.", QType.A, msg_id=8)
        )
        assert result.status is ExchangeStatus.TIMEOUT
        assert result.status is ExchangeStatus.TIMEOUT and not result.answered
        assert result.rcode is None

    def test_dot_answered_shape(self, comcast):
        from repro.atlas.transport import dot_exchange

        scenario = build_scenario(make_spec(comcast, probe_id=32))
        result = dot_exchange(
            scenario.network,
            scenario.host,
            "8.8.8.8",
            make_query("o-o.myaddr.l.google.com.", QType.TXT, msg_id=9),
            expected_identity="dns.google",
        )
        assert result.transport == "dot"
        assert result.status is ExchangeStatus.ANSWERED
        assert result.status is not ExchangeStatus.IDENTITY_REJECTED
        assert result.rtt_ms is not None and result.rtt_ms > 0


class TestStatusOfMemo:
    def test_matches_linear_scan_and_leaves_equality_alone(self, fleet):
        study = run_pilot_study(fleet[:4], StudyConfig(workers=1))
        record = study.records[0]
        twin = dataclasses.replace(record)
        for name, family, status in record.provider_status:
            from repro.resolvers.public import Provider

            assert record.status_of(Provider(name), family) == status
        # The memo is stashed outside the dataclass fields: equality,
        # asdict and replace are unaffected by having used it.
        assert record == twin
        assert "_status_map" not in dataclasses.asdict(record)
