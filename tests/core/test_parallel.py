"""The sharded multi-process fleet executor."""

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.population import generate_population
from repro.core.parallel import (
    FleetShard,
    measure_fleet,
    merge_shard_records,
    shard_fleet,
)
from repro.core.study import StudyConfig, run_pilot_study

from tests.conftest import make_spec


@pytest.fixture(scope="module")
def fleet():
    return generate_population(size=16, seed=77)


class TestShardFleet:
    def test_preserves_order_and_indices(self, fleet):
        shards = shard_fleet(fleet, 5)
        rebuilt = [spec for shard in shards for spec in shard.specs]
        assert rebuilt == list(fleet)
        indices = [i for shard in shards for i in shard.indices]
        assert indices == list(range(len(fleet)))

    def test_near_equal_sizes(self, fleet):
        shards = shard_fleet(fleet, 5)
        sizes = [len(s) for s in shards]
        assert sum(sizes) == len(fleet)
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_specs(self, fleet):
        shards = shard_fleet(fleet[:3], 10)
        assert len(shards) == 3
        assert all(len(s) == 1 for s in shards)

    def test_single_shard(self, fleet):
        (shard,) = shard_fleet(fleet, 1)
        assert shard.specs == tuple(fleet)

    def test_empty_fleet(self):
        assert shard_fleet([], 4) == []

    def test_invalid_shard_count(self, fleet):
        with pytest.raises(ValueError):
            shard_fleet(fleet, 0)


class TestMerge:
    def test_restores_fleet_order(self):
        org = organization_by_name("Comcast")
        from repro.core.parallel import measure_shard

        specs = [make_spec(org, probe_id=600 + i) for i in range(4)]
        shards = shard_fleet(specs, 2)
        # Complete shards out of order, as a pool would.
        results = [measure_shard(s) for s in reversed(shards)]
        records = merge_shard_records(results)
        assert [r.probe_id for r in records] == [s.probe_id for s in specs]


def _records(specs, workers, **kwargs):
    return measure_fleet(specs, StudyConfig(workers=workers), **kwargs).records


class TestRunFleet:
    def test_parallel_matches_serial(self, fleet):
        serial = _records(fleet, 1)
        parallel = _records(fleet, 4)
        assert parallel == serial

    def test_progress_aggregated_across_workers(self, fleet):
        calls = []
        _records(fleet, 3, progress=lambda d, t: calls.append((d, t)))
        assert calls[-1] == (len(fleet), len(fleet))
        dones = [d for d, _t in calls]
        assert dones == sorted(dones)  # monotone non-decreasing
        assert all(t == len(fleet) for _d, t in calls)

    def test_empty_fleet(self):
        assert _records([], 4) == []

    def test_invalid_worker_count(self, fleet):
        with pytest.raises(ValueError):
            _records(fleet, 0)

    def test_workers_capped_by_fleet_size(self, fleet):
        # More workers than probes must still work (and stay identical).
        assert _records(fleet[:2], 8) == _records(fleet[:2], 1)


class TestStudyDispatch:
    def test_parallel_study_identical_to_serial(self, fleet):
        serial = run_pilot_study(fleet, StudyConfig(workers=1, seed=77))
        parallel = run_pilot_study(fleet, StudyConfig(workers=4, seed=77))
        assert parallel.records == serial.records
        assert parallel.fleet_size == serial.fleet_size == len(fleet)
        assert parallel.seed == serial.seed == 77

    def test_seed_recorded(self, fleet):
        study = run_pilot_study(fleet[:2], StudyConfig(seed=123))
        assert study.seed == 123

    def test_config_recorded(self, fleet):
        config = StudyConfig(workers=2, seed=9)
        study = run_pilot_study(fleet[:2], config)
        assert study.config is config

    def test_seed_reaches_export(self, fleet):
        import json

        from repro.analysis.export import study_to_json

        study = run_pilot_study(fleet[:2], StudyConfig(seed=456))
        assert json.loads(study_to_json(study))["seed"] == 456
