"""Campaign fixtures: a small bundle with every schedule feature on."""

import os
from dataclasses import dataclass

import pytest

from repro.campaigns import LongitudinalCampaign, bundle_from_dict
from repro.store import ResultStore, StoreInterrupted, epoch_manifest, read_journal


def bundle_data(**overrides):
    data = {
        "name": "test-campaign",
        "description": "fixture",
        "population": {
            "size": 30,
            "seed": 9,
            "cpe_true_count": 1500,
            "isp_all_four": 1200,
        },
        "study": {"detector": "both"},
        "schedule": {
            "epochs": 3,
            "churn": {"leave_rate": 0.06, "join_rate": 0.07},
            "firmware_upgrades": [
                {"epoch": 1, "match_model": "XB6", "profile": "xb6-fixed"}
            ],
            "policy_flips": [
                {"epoch": 2, "action": "stop-intercepting", "fraction": 0.5}
            ],
        },
    }
    data.update(overrides)
    return data


@pytest.fixture(scope="session")
def small_bundle():
    return bundle_from_dict(bundle_data())


def journal_bytes(store_path) -> bytes:
    """Concatenated record-shard content in shard order.

    Shard *boundaries* differ across writer sessions (each session opens
    a fresh shard), so byte-identity claims compare the concatenation —
    the line sequence — not the per-file layout.
    """
    journal = os.path.join(str(store_path), "journal")
    blob = b""
    for name in sorted(os.listdir(journal)):
        if name.startswith("records-") and name.endswith(".jsonl"):
            with open(os.path.join(journal, name), "rb") as handle:
                blob += handle.read()
    return blob


# -- probe pages --------------------------------------------------------------


def full_scan_page(store_path, epoch, offset=0, limit=50) -> dict:
    """The oracle for every probe page: the original page reader, which
    rescanned the whole journal per call."""
    by_index: dict = {}
    for entry in read_journal(os.path.join(str(store_path), "journal"), "records"):
        if int(entry.get("e", 0)) != epoch:
            continue
        by_index.setdefault(int(entry["i"]), entry["record"])
    indices = sorted(by_index)
    page = indices[offset : offset + limit]
    return {
        "epoch": epoch,
        "total": len(indices),
        "offset": offset,
        "limit": limit,
        "probes": [{"index": index, "record": by_index[index]} for index in page],
    }


def page_grid(epoch_sizes):
    """Every ``(epoch, offset, limit)`` the parity tests request: the
    first, a middle and the last page, and one past the end."""
    for epoch, size in enumerate(epoch_sizes):
        for offset in (0, 50, 199, size + 1):
            for limit in (1, 50, 1000):
                yield epoch, offset, limit


#: Two epochs of ~210 probes, so offset 199 lands on a real last page.
PAGE_BUNDLE = bundle_data(
    name="page-campaign",
    population={"size": 210, "seed": 9, "cpe_true_count": 1500},
    study={},
    schedule={
        "epochs": 2,
        "churn": {"leave_rate": 0.06, "join_rate": 0.07},
        "firmware_upgrades": [
            {"epoch": 1, "match_model": "XB6", "profile": "xb6-fixed"}
        ],
    },
)

#: How many epoch-0 indices the resumed store's replayed segment repeats.
REPLAYED = 20


@dataclass
class PageStores:
    campaign: LongitudinalCampaign
    records: dict  # epoch -> records in fleet order
    resumed: str  # budget-interrupted, resumed, then a replayed segment
    sharded: str  # the same records over many small shards


def build_page_stores(root) -> PageStores:
    campaign = LongitudinalCampaign(bundle_from_dict(PAGE_BUNDLE))
    resumed = os.path.join(str(root), "resumed")
    interrupted = ResultStore(resumed, probe_budget=150)
    with pytest.raises(StoreInterrupted):
        campaign.run(store=interrupted)
    interrupted.close()
    campaign.run(store=ResultStore(resumed, resume=True))
    records = ResultStore(resumed).collect()[0]
    # A replayed segment over journaled indices, with other records:
    # every reader must keep the first.
    replay = ResultStore(resumed, resume=True)
    replay.begin("longitudinal", campaign.fingerprint(),
                 epoch_manifest(campaign.epoch_sizes()))
    replay.append(zip(range(REPLAYED), reversed(records[0])), epoch=0)
    replay.close()

    sharded = os.path.join(str(root), "sharded")
    store = ResultStore(sharded, records_per_file=37)
    store.begin("longitudinal", campaign.fingerprint(),
                epoch_manifest(campaign.epoch_sizes()))
    for epoch, batch in sorted(records.items()):
        store.append(enumerate(batch), epoch=epoch)
    store.finalize()
    return PageStores(campaign, records, resumed, sharded)
