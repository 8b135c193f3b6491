"""The store's longitudinal surface: epoch segments, resume, summary."""

import pytest

from repro.core.parallel import measure_fleet
from repro.core.study import StudyConfig
from repro.store import (
    ResultStore,
    StoreResumeRequired,
    epoch_manifest,
    summarize_store,
)


@pytest.fixture(scope="module")
def epoch_records(small_fleet):
    records = measure_fleet(small_fleet, StudyConfig(seed=11)).records
    # Two "epochs" re-measuring the same fleet is enough for the store
    # surface; real campaigns derive time-varying fleets upstream.
    return {0: records, 1: records}


def fill_store(path, epoch_records, fingerprint="f" * 64):
    sizes = [len(epoch_records[e]) for e in sorted(epoch_records)]
    store = ResultStore(str(path))
    done = store.begin("longitudinal", fingerprint, epoch_manifest(sizes))
    assert done == set()
    for epoch in sorted(epoch_records):
        store.append(list(enumerate(epoch_records[epoch])), epoch=epoch)
    return store


class TestLongitudinalSurface:
    def test_round_trip(self, tmp_path, epoch_records):
        store = fill_store(tmp_path / "s", epoch_records)
        collected, _metrics = store.collect()
        store.finalize()
        assert collected == epoch_records

    def test_completed_pairs_and_resume_guard(self, tmp_path, epoch_records):
        path = str(tmp_path / "s")
        store = fill_store(path, epoch_records)
        store.close()
        with pytest.raises(StoreResumeRequired):
            ResultStore(path).begin(
                "longitudinal", "f" * 64, epoch_manifest([len(epoch_records[0])] * 2)
            )
        resumed = ResultStore(path, resume=True)
        done = resumed.begin(
            "longitudinal", "f" * 64, epoch_manifest([len(epoch_records[0])] * 2)
        )
        assert done == {
            (epoch, index)
            for epoch in epoch_records
            for index in range(len(epoch_records[epoch]))
        }
        resumed.close()

    def test_partial_epoch_resumes_mid_epoch(self, tmp_path, epoch_records):
        path = str(tmp_path / "s")
        sizes = [len(epoch_records[e]) for e in sorted(epoch_records)]
        store = ResultStore(path)
        store.begin("longitudinal", "f" * 64, epoch_manifest(sizes))
        store.append(list(enumerate(epoch_records[0]))[:5], epoch=0)
        store.close()
        resumed = ResultStore(path, resume=True)
        done = resumed.begin("longitudinal", "f" * 64, epoch_manifest(sizes))
        assert done == {(0, index) for index in range(5)}
        resumed.close()

    def test_summary_counts_epochs_and_verdicts(self, tmp_path, epoch_records):
        path = str(tmp_path / "s")
        store = fill_store(path, epoch_records)
        store.finalize()
        summary = summarize_store(path)
        assert summary.kind == "longitudinal"
        assert summary.complete is True
        assert summary.counts["epochs"] == 2
        verdict_total = sum(
            count
            for verdict, count in summary.counts.items()
            if verdict != "epochs"
        )
        assert verdict_total == sum(
            len(records) for records in epoch_records.values()
        )
        assert "longitudinal" in summary.render()
