"""Chaos-hardened pipeline: determinism, stability, graceful degradation."""

import pytest

from repro.analysis.stability import build_stability_report, compare_verdicts
from repro.atlas.geo import organization_by_name
from repro.atlas.population import generate_population
from repro.atlas.retry import default_chaos_retry
from repro.core.classifier import LocatorVerdict
from repro.core.study import StudyConfig, measure_probe, run_pilot_study
from repro.interceptors.policy import InterceptMode, intercept_only
from repro.net.impairment import impairment_profile

from tests.conftest import make_spec

RESIDENTIAL = impairment_profile("residential")


def chaos_config(workers=1, **overrides):
    defaults = dict(
        workers=workers,
        impairment=RESIDENTIAL,
        impairment_seed=1,
        retry=default_chaos_retry(),
        metrics=True,
        trace="off",
    )
    defaults.update(overrides)
    return StudyConfig(**defaults)


class TestChaosDeterminism:
    def test_workers_invariant_records_and_metrics(self):
        """The acceptance bar: an impaired study is byte-identical for
        any worker count — per-link RNG streams are seeded from stable
        tokens, never from shard layout."""
        specs = generate_population(size=24, seed=5)
        serial = run_pilot_study(specs, chaos_config(workers=1))
        parallel = run_pilot_study(specs, chaos_config(workers=3))
        assert serial.records == parallel.records
        assert serial.metrics is not None and parallel.metrics is not None
        assert serial.metrics.to_json() == parallel.metrics.to_json()

    def test_impairment_changes_wire_behaviour(self):
        """Sanity: the profile actually perturbs the network (retries
        happen), it just must not perturb the verdicts."""
        specs = generate_population(size=24, seed=5)
        impaired = run_pilot_study(specs, chaos_config())
        counters = impaired.metrics.counters
        assert counters.get("net.impair.dropped", 0) > 0
        assert counters.get("exchange.retransmissions", 0) > 0

    def test_config_validates_chaos_knobs(self):
        with pytest.raises(ValueError):
            StudyConfig(impairment="residential")  # must be a LinkProfile
        with pytest.raises(ValueError):
            StudyConfig(retry=3)  # must be a RetryPolicy


class TestVerdictStability:
    def test_residential_profile_keeps_verdicts(self):
        """The §4 chaos bar, scaled to test size: >=99% agreement with
        the clean run and zero intercepted->clean flips."""
        specs = generate_population(size=60, seed=9)
        clean = run_pilot_study(specs, StudyConfig(workers=1))
        trials = [
            run_pilot_study(specs, chaos_config(impairment_seed=trial, metrics=False))
            for trial in (1, 2)
        ]
        report = build_stability_report(clean, trials)
        assert report.ok(), report.render()

    def test_compare_verdicts_rejects_fleet_mismatch(self):
        specs = generate_population(size=6, seed=3)
        clean = run_pilot_study(specs, StudyConfig(workers=1))
        short = run_pilot_study(specs[:5], StudyConfig(workers=1))
        with pytest.raises(ValueError):
            compare_verdicts(clean, short)


class TestGracefulDegradation:
    def drop_google_spec(self, probe_id):
        """Google's addresses swallow queries (DROP-mode middlebox that
        matches only them); other providers answer genuinely."""
        org = organization_by_name("Comcast")
        policy = intercept_only(
            ["8.8.8.8", "8.8.4.4"], mode=InterceptMode.DROP
        )
        return make_spec(org, probe_id=probe_id, middlebox_policies=[policy])

    def test_without_retries_conservative_not_intercepted(self):
        """Classic runs keep their historical verdict: a silent pair is
        conservatively not-intercepted (the paper's choice)."""
        record = measure_probe(self.drop_google_spec(930))
        assert record.verdict is LocatorVerdict.NOT_INTERCEPTED
        assert record.inconclusive_steps == ()

    def test_with_retries_degrades_to_inconclusive(self):
        """With a full retransmission budget spent, the same silence is
        evidence of a measurement gap, not of cleanliness: the verdict
        becomes INCONCLUSIVE and names the starved step."""
        record = measure_probe(
            self.drop_google_spec(930), StudyConfig(retry=default_chaos_retry())
        )
        assert record.verdict is LocatorVerdict.INCONCLUSIVE
        assert record.inconclusive_steps == ("detect",)
        assert not record.intercepted

    def test_inconclusive_steps_survive_study_records(self):
        spec = self.drop_google_spec(931)
        study = run_pilot_study(
            [spec], StudyConfig(workers=1, retry=default_chaos_retry())
        )
        (record,) = study.records
        assert record.verdict == LocatorVerdict.INCONCLUSIVE.value
        assert record.inconclusive_steps == ("detect",)

    def test_inconclusive_steps_round_trip_json(self):
        from repro.analysis.export import study_from_json, study_to_json

        spec = self.drop_google_spec(932)
        study = run_pilot_study(
            [spec], StudyConfig(workers=1, retry=default_chaos_retry())
        )
        loaded = study_from_json(study_to_json(study))
        assert loaded.records == study.records
        assert loaded.records[0].inconclusive_steps == ("detect",)
