"""The sharded multi-process fleet executor."""

import dataclasses

import pytest

from repro.atlas.population import generate_population
from repro.core.parallel import FleetSession, measure_fleet, shard_fleet
from repro.core.study import StudyConfig, run_pilot_study


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

    def test_explicit_indices(self, fleet):
        # A resumed study's remaining work: non-contiguous fleet indices.
        indices = [1, 4, 5, 9, 12]
        shards = shard_fleet([fleet[i] for i in indices], 2, indices)
        assert [shard.indices for shard in shards] == [(1, 4, 5), (9, 12)]
        assert [spec for shard in shards for spec in shard.specs] == [
            fleet[i] for i in indices
        ]

    def test_invalid_shard_count(self, fleet):
        with pytest.raises(ValueError):
            shard_fleet(fleet, 0)


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


class TestFleetSession:
    def test_reused_session_matches_single_use(self, fleet):
        config = StudyConfig(workers=1)
        with FleetSession(config) as session:
            first = measure_fleet(fleet, config, session=session).records
            again = measure_fleet(fleet[::-1], config, session=session).records
        assert first == _records(fleet, 1)
        assert again == first[::-1]

    def test_session_is_bound_to_its_config(self, fleet):
        # The dedup memo's key has no config field: records memoised
        # under one config must never answer for another.
        config = StudyConfig(workers=1)
        with FleetSession(config) as session:
            measure_fleet(fleet, config, session=session)
            others = (
                dataclasses.replace(config),
                StudyConfig(workers=1, detector="both"),
            )
            for other in others:
                with pytest.raises(ValueError, match="different StudyConfig"):
                    measure_fleet(fleet, other, session=session)

    def test_pool_sized_by_config_not_first_call(self, fleet):
        # A resumed campaign's first epoch may have only a few probes
        # left; the pool must still serve every later epoch at full size.
        config = StudyConfig(workers=3)
        with FleetSession(config) as session:
            measure_fleet(fleet[:2], config, session=session)
            assert session._pool._max_workers == 3
            records = measure_fleet(fleet, config, session=session).records
        assert records == _records(fleet, 1)


class TestWatchedRunDedups:
    """Metrics take the path an unwatched run takes: a follower replays
    its leader's snapshot, so only an exchange-level event log (which
    names each probe's own CPE WAN address) measures every probe."""

    @pytest.mark.parametrize("trace", ["off", "probe", "exchange"])
    def test_measures_what_an_unwatched_run_measures(self, trace, monkeypatch):
        from repro.core import study

        measured = []
        measure_probe = study.measure_probe

        def counting(spec, *args, **kwargs):
            measured.append(spec.probe_id)
            return measure_probe(spec, *args, **kwargs)

        monkeypatch.setattr(study, "measure_probe", counting)
        specs = generate_population(size=100, seed=2021)
        plain = measure_fleet(specs, StudyConfig()).records
        unwatched = len(measured)
        measured.clear()
        watched = measure_fleet(specs, StudyConfig(metrics=True, trace=trace))
        assert watched.records == plain
        assert watched.metrics.counters["study.probes.measured"] == len(specs)
        if trace == "exchange":
            assert len(measured) == len(specs) > unwatched
        else:
            assert len(measured) == unwatched < len(specs)


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


class TestStoredFleet:
    """A journaled run measures with the same serial and pool loops."""

    @staticmethod
    def exported(study):
        from repro.analysis.export import study_to_json

        return study_to_json(study), study.metrics.to_json()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_stored_matches_storeless(self, fleet, workers, tmp_path):
        from repro.store import ResultStore

        config = StudyConfig(workers=workers, seed=77, metrics=True)
        storeless = run_pilot_study(fleet, config)
        stored = run_pilot_study(fleet, config, store=ResultStore(str(tmp_path)))
        assert self.exported(stored) == self.exported(storeless)

    def test_serial_stored_progress_per_probe(self, tmp_path):
        from repro.store import ResultStore

        specs = generate_population(size=40, seed=78)
        calls = []
        run_pilot_study(
            specs,
            StudyConfig(workers=1),
            store=ResultStore(str(tmp_path)),
            progress=lambda done, total: calls.append((done, total)),
        )
        # One report of the journaled count, then one per probe.
        assert calls == [(done, len(specs)) for done in range(len(specs) + 1)]


class TestJournalBytes:
    """A study's store holds the same bytes at any worker count: the
    journal is cut into the same fleet-order segments, records and
    metrics segments alike, however the leaders were shared among
    jobs. 100 probes make three segments, which the jobs of two and
    three workers cut across."""

    ARGV = ["study", "--size", "100", "--seed", "2021"]

    @classmethod
    def run_study(cls, store, capsys, *runs) -> dict:
        """Run the study into ``store`` once per ``(workers, extra
        arguments, exit code)`` of ``runs``; return the bytes of every
        file of the store by path."""
        from repro.cli import main

        for workers, extra, code in runs:
            argv = [*cls.ARGV, "--workers", str(workers), "--store", str(store)]
            assert main([*argv, *extra]) == code
        capsys.readouterr()
        return {
            str(path.relative_to(store)): path.read_bytes()
            for path in sorted(store.rglob("*"))
            if path.is_file()
        }

    @pytest.mark.parametrize("metrics", [False, True], ids=["records", "metrics"])
    def test_same_bytes_at_any_worker_count(self, metrics, tmp_path, capsys):
        extra = ["--metrics", str(tmp_path / "metrics.json")] if metrics else []
        stores = {
            workers: self.run_study(
                tmp_path / f"w{workers}", capsys, (workers, extra, 0)
            )
            for workers in (1, 2, 3)
        }
        names = ["journal/records-0000.jsonl", "manifest.json", "study.json"]
        if metrics:
            names.insert(0, "journal/metrics-0000.jsonl")
        assert sorted(stores[1]) == names
        assert stores[2] == stores[1]
        assert stores[3] == stores[1]

        # Interrupted by the budget, then resumed: the resumed session
        # opens new journal files, so the reference is the same cut made
        # in-process, and the export matches the uninterrupted run's.
        budget = (["--probe-budget", "45", *extra], 3)
        resume = (["--resume", *extra], 0)
        serial = self.run_study(
            tmp_path / "serial", capsys, (1, *budget), (1, *resume)
        )
        pooled = self.run_study(
            tmp_path / "pooled", capsys, (2, *budget), (1, *resume)
        )
        assert pooled == serial
        assert serial["manifest.json"] == stores[1]["manifest.json"]
        assert serial["study.json"] == stores[1]["study.json"]
