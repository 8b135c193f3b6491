"""Crash points at the end of a journal line: resume must re-measure.

A crash can tear exactly the final newline off a shard, leaving a
complete JSON line with no terminator. Both journal readers must treat
that line as torn: the resume path (``ResultStore.done``) re-measures
the probe, and the aggregation fold (``read_journal_tail``) counts the
re-measured copy. If the two
readers disagreed, the resumed campaign would skip the probe while the
fold never saw it, and its epoch would never read complete.
"""

import glob
import os

import pytest

from repro.campaigns import LongitudinalCampaign, StoreAggregator, bundle_from_dict
from repro.store import (
    ResultStore,
    StoreInterrupted,
    read_journal,
    read_journal_tail,
)

BUNDLE = {
    "name": "crash-points",
    "description": "fixture",
    "population": {"size": 12, "seed": 5, "cpe_true_count": 1500},
    "study": {},
    "schedule": {"epochs": 2, "churn": {"leave_rate": 0.1, "join_rate": 0.1}},
}


@pytest.fixture(scope="module")
def bundle():
    return bundle_from_dict(BUNDLE)


@pytest.fixture(scope="module")
def reference(bundle, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("crash") / "reference")
    LongitudinalCampaign(bundle).run(store=ResultStore(path), workers=1)
    return path


def journal_dir(store_path) -> str:
    return os.path.join(store_path, "journal")


def tables(store_path) -> dict:
    aggregator = StoreAggregator(store_path)
    aggregator.refresh()
    return aggregator.trend()


def cut_final_newline(store_path) -> None:
    shards = glob.glob(os.path.join(journal_dir(store_path), "records-*.jsonl"))
    last = sorted(shards)[-1]
    with open(last, "rb") as handle:
        blob = handle.read()
    assert blob.endswith(b"\n")
    with open(last, "wb") as handle:
        handle.write(blob[:-1])


@pytest.mark.parametrize("budget", [1, 7, 13])
def test_unterminated_final_line_is_measured_again(
    bundle, reference, tmp_path, budget
):
    path = str(tmp_path / "crashed")
    with pytest.raises(StoreInterrupted):
        LongitudinalCampaign(bundle).run(
            store=ResultStore(path, probe_budget=budget), workers=1
        )
    cut_final_newline(path)

    full = read_journal(journal_dir(path), "records")
    tail, _cursor = read_journal_tail(journal_dir(path), "records")
    assert full == tail
    assert len(full) == budget - 1

    LongitudinalCampaign(bundle).run(
        store=ResultStore(path, resume=True), workers=1
    )
    assert read_journal(journal_dir(path), "records") == read_journal(
        journal_dir(reference), "records"
    )
    resumed = tables(path)
    expected = tables(reference)
    assert all(table["complete"] for table in resumed["epochs"])
    assert resumed == expected
