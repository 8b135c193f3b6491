"""ResultStore behaviour: resume identity, guards, and the archive API."""

import json

import pytest

from repro.analysis.export import study_to_json
from repro.core.study import StudyConfig, run_pilot_study
from repro.store import (
    ResultStore,
    StoreError,
    StoreIncompleteError,
    StoreInterrupted,
    StoreMismatchError,
    StoreResumeRequired,
    list_stores,
    load_manifest,
    load_stored_study,
    read_journal,
    study_fingerprint,
    summarize_store,
)
from repro.store.result_store import load_stored_records


def _interrupt_then_resume(specs, config, path, budget):
    """Run to the budget, then resume to completion; return the result."""
    with pytest.raises(StoreInterrupted) as excinfo:
        run_pilot_study(specs, config, store=ResultStore(path, probe_budget=budget))
    assert excinfo.value.done == budget
    assert excinfo.value.total == len(specs)
    return run_pilot_study(specs, config, store=ResultStore(path, resume=True))


class TestResumeByteIdentity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_resumed_export_matches_uninterrupted(
        self, small_fleet, tmp_path, workers
    ):
        config = StudyConfig(workers=workers, seed=11)
        reference = study_to_json(run_pilot_study(small_fleet, config))
        resumed = _interrupt_then_resume(
            small_fleet, config, str(tmp_path / "s"), budget=5
        )
        assert study_to_json(resumed) == reference

    def test_resume_across_worker_counts(self, small_fleet, tmp_path):
        """Interrupt at workers=2, resume at workers=1: still identical."""
        reference = study_to_json(
            run_pilot_study(small_fleet, StudyConfig(workers=1, seed=11))
        )
        path = str(tmp_path / "s")
        with pytest.raises(StoreInterrupted):
            run_pilot_study(
                small_fleet,
                StudyConfig(workers=2, seed=11),
                store=ResultStore(path, probe_budget=5),
            )
        resumed = run_pilot_study(
            small_fleet,
            StudyConfig(workers=1, seed=11),
            store=ResultStore(path, resume=True),
        )
        assert study_to_json(resumed) == reference

    def test_metrics_snapshot_survives_interruption(self, small_fleet, tmp_path):
        config = StudyConfig(workers=1, seed=11, metrics=True)
        reference = run_pilot_study(small_fleet, config)
        resumed = _interrupt_then_resume(
            small_fleet, config, str(tmp_path / "s"), budget=6
        )
        assert resumed.metrics is not None
        assert resumed.metrics.to_dict() == reference.metrics.to_dict()
        assert study_to_json(resumed) == study_to_json(reference)

    def test_uninterrupted_store_run_matches_plain(self, small_fleet, tmp_path):
        config = StudyConfig(workers=1, seed=11)
        reference = study_to_json(run_pilot_study(small_fleet, config))
        stored = run_pilot_study(
            small_fleet, config, store=ResultStore(str(tmp_path / "s"))
        )
        assert study_to_json(stored) == reference

    def test_export_written_into_store(self, small_fleet, tmp_path):
        config = StudyConfig(workers=1, seed=11)
        study = run_pilot_study(
            small_fleet, config, store=ResultStore(str(tmp_path / "s"))
        )
        on_disk = (tmp_path / "s" / "study.json").read_text()
        assert on_disk == study_to_json(study)


class TestGuards:
    def test_nonempty_store_requires_resume_flag(self, small_fleet, tmp_path):
        config = StudyConfig(workers=1, seed=11)
        path = str(tmp_path / "s")
        with pytest.raises(StoreInterrupted):
            run_pilot_study(
                small_fleet, config, store=ResultStore(path, probe_budget=3)
            )
        with pytest.raises(StoreResumeRequired):
            run_pilot_study(small_fleet, config, store=ResultStore(path))

    def test_different_seed_is_a_mismatch(self, small_fleet, tmp_path):
        path = str(tmp_path / "s")
        with pytest.raises(StoreInterrupted):
            run_pilot_study(
                small_fleet,
                StudyConfig(workers=1, seed=11),
                store=ResultStore(path, probe_budget=3),
            )
        with pytest.raises(StoreMismatchError):
            run_pilot_study(
                small_fleet,
                StudyConfig(workers=1, seed=12),
                store=ResultStore(path, resume=True),
            )

    def test_different_fleet_is_a_mismatch(self, small_fleet, tmp_path):
        config = StudyConfig(workers=1, seed=11)
        path = str(tmp_path / "s")
        with pytest.raises(StoreInterrupted):
            run_pilot_study(
                small_fleet, config, store=ResultStore(path, probe_budget=3)
            )
        with pytest.raises(StoreMismatchError):
            run_pilot_study(
                small_fleet[:-1], config, store=ResultStore(path, resume=True)
            )

    def test_bad_probe_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(str(tmp_path / "s"), probe_budget=0)

    def test_append_before_begin_rejected(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        with pytest.raises(StoreError):
            store.append([])

    def test_collect_on_partial_store_is_incomplete(self, small_fleet, tmp_path):
        config = StudyConfig(workers=1, seed=11)
        path = str(tmp_path / "s")
        with pytest.raises(StoreInterrupted):
            run_pilot_study(
                small_fleet, config, store=ResultStore(path, probe_budget=3)
            )
        reader = ResultStore(path, resume=True)
        reader.begin("study", study_fingerprint(config, small_fleet), {})
        with pytest.raises(StoreIncompleteError):
            reader.collect()

    def test_metrics_done_requires_snapshot_coverage(self, small_fleet, tmp_path):
        """A record line without its metrics segment is not 'done' — the
        crash-between-the-two-journals case re-measures that segment."""
        config = StudyConfig(workers=1, seed=11, metrics=True)
        path = tmp_path / "s"
        run_pilot_study(small_fleet, config, store=ResultStore(str(path)))
        for metrics_file in (path / "journal").glob("metrics-*.jsonl"):
            metrics_file.unlink()
        reopened = ResultStore(str(path), resume=True)
        assert reopened.begin(
            "study", study_fingerprint(config, small_fleet), {}
        ) == set()
        # Without the metrics requirement the record lines still count.
        assert len(read_journal(str(path / "journal"), "records")) == len(small_fleet)


class TestArchiveSurface:
    @pytest.fixture
    def complete_store(self, small_fleet, tmp_path):
        config = StudyConfig(workers=1, seed=11)
        study = run_pilot_study(
            small_fleet, config, store=ResultStore(str(tmp_path / "s"))
        )
        return str(tmp_path / "s"), study

    def test_manifest_contents(self, complete_store, small_fleet):
        path, _study = complete_store
        manifest = load_manifest(path)
        assert manifest["kind"] == "study"
        assert manifest["complete"] is True
        assert manifest["fleet_size"] == len(small_fleet)
        assert manifest["seed"] == 11
        assert "workers" not in manifest["config"]

    def test_load_manifest_on_non_store(self, tmp_path):
        with pytest.raises(StoreError):
            load_manifest(str(tmp_path))
        assert load_manifest(str(tmp_path), missing_ok=True) is None

    def test_load_stored_records_in_fleet_order(self, complete_store, small_fleet):
        path, study = complete_store
        pairs = load_stored_records(path)
        assert [index for index, _record in pairs] == list(range(len(small_fleet)))
        assert [record for _index, record in pairs] == study.records

    def test_load_stored_study(self, complete_store):
        path, study = complete_store
        loaded = load_stored_study(path)
        assert loaded.records == study.records
        assert loaded.seed == study.seed
        assert loaded.fleet_size == study.fleet_size
        assert loaded.config.seed == study.config.seed

    def test_list_stores_finds_children(self, complete_store, tmp_path):
        path, _study = complete_store
        assert list_stores(str(tmp_path)) == [path]
        assert list_stores(path) == [path]
        assert list_stores(str(tmp_path / "missing")) == []

    def test_summary_counts_match_records(self, complete_store, small_fleet):
        path, study = complete_store
        summary = summarize_store(path)
        assert summary.kind == "study"
        assert summary.complete is True
        assert summary.done == summary.total == len(small_fleet)
        assert sum(summary.counts.values()) == len(small_fleet)
        assert summary.counts == {
            verdict: len([r for r in study.records if r.verdict == verdict])
            for verdict in {r.verdict for r in study.records}
        }
        rendered = summary.render()
        assert "[study]" in rendered and "complete" in rendered

    def test_partial_store_summary(self, small_fleet, tmp_path):
        config = StudyConfig(workers=1, seed=11)
        path = str(tmp_path / "s")
        with pytest.raises(StoreInterrupted):
            run_pilot_study(
                small_fleet, config, store=ResultStore(path, probe_budget=4)
            )
        summary = summarize_store(path)
        assert summary.done == 4
        assert summary.total == len(small_fleet)
        assert not summary.complete
        assert "partial" in summary.render()

    def test_summary_counts_only_what_resume_counts_done(
        self, small_fleet, tmp_path
    ):
        """Record lines whose metrics segment never reached the disk (a
        crash between the two syncs) are not done: the summary must say
        what a resumed run would measure again, not every record line."""
        config = StudyConfig(workers=1, seed=11, metrics=True)
        path = tmp_path / "s"
        run_pilot_study(small_fleet, config, store=ResultStore(str(path)))
        for metrics_file in (path / "journal").glob("metrics-*.jsonl"):
            metrics_file.write_text("")
        summary = summarize_store(str(path))
        assert summary.done == 0
        assert summary.counts == {}
        reopened = ResultStore(str(path), resume=True)
        done = reopened.begin("study", study_fingerprint(config, small_fleet), {})
        reopened.close()
        assert summary.done == len(done)


class TestDurabilityDetails:
    def test_duplicate_record_lines_dedupe_first_wins(
        self, small_fleet, tmp_path
    ):
        """A crash after journaling but before the metrics line re-measures
        the segment; the duplicate line must be harmless."""
        config = StudyConfig(workers=1, seed=11)
        path = tmp_path / "s"
        study = run_pilot_study(small_fleet, config, store=ResultStore(str(path)))
        shard = next((path / "journal").glob("records-*.jsonl"))
        first_line = shard.read_text().splitlines()[0]
        extra = path / "journal" / "records-9000.jsonl"
        extra.write_text(first_line + "\n")
        reader = ResultStore(str(path), resume=True)
        reader.begin("study", study_fingerprint(config, small_fleet), {})
        records = reader.collect()[0][None]
        assert records == study.records

    def test_journal_survives_torn_tail(self, small_fleet, tmp_path):
        config = StudyConfig(workers=1, seed=11)
        path = tmp_path / "s"
        with pytest.raises(StoreInterrupted):
            run_pilot_study(
                small_fleet, config, store=ResultStore(str(path), probe_budget=5)
            )
        # Tear the last journal line, as an interrupted write would.
        shard = sorted((path / "journal").glob("records-*.jsonl"))[-1]
        torn = shard.read_text()[:-9]
        shard.write_text(torn)
        resumed = run_pilot_study(
            small_fleet, config, store=ResultStore(str(path), resume=True)
        )
        reference = study_to_json(run_pilot_study(small_fleet, config))
        assert study_to_json(resumed) == reference

    def test_fsync_batching_still_journals_everything(
        self, small_fleet, tmp_path
    ):
        config = StudyConfig(workers=1, seed=11)
        store = ResultStore(str(tmp_path / "s"), fsync_every=1)
        study = run_pilot_study(small_fleet, config, store=store)
        assert len(load_stored_records(str(tmp_path / "s"))) == len(small_fleet)
        assert study.records == [
            r for _i, r in load_stored_records(str(tmp_path / "s"))
        ]

    def test_manifest_is_valid_json_with_schema(self, small_fleet, tmp_path):
        config = StudyConfig(workers=1, seed=11)
        run_pilot_study(
            small_fleet, config, store=ResultStore(str(tmp_path / "s"))
        )
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["schema"] == 1
        assert len(manifest["fingerprint"]) == 64
