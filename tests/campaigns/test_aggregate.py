"""Incremental aggregation: fold-equals-rescan, persistence, paging."""

import json
import os
import shutil

import pytest

from repro.campaigns import (
    LongitudinalCampaign,
    StoreAggregator,
    canonical_json,
    load_epoch_page,
)
from repro.campaigns.aggregate import (
    _COUNTER_KEYS,
    _indices_from_ranges,
    _ranges_from_indices,
)
from repro.store import (
    ResultStore,
    StoreCorruptError,
    StoreError,
    epoch_manifest,
    read_journal,
)

from .conftest import REPLAYED, full_scan_page, page_grid


@pytest.fixture(scope="module")
def campaign_store(small_bundle, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("agg") / "store")
    LongitudinalCampaign(small_bundle).run(store=ResultStore(path))
    return path


class TestRangeCompression:
    def test_round_trip(self):
        indices = {0, 1, 2, 5, 7, 8, 9}
        ranges = _ranges_from_indices(indices)
        assert ranges == [[0, 2], [5, 5], [7, 9]]
        assert _indices_from_ranges(ranges) == indices

    def test_contiguous_run_is_one_range(self):
        assert _ranges_from_indices(set(range(1000))) == [[0, 999]]

    def test_empty(self):
        assert _ranges_from_indices(set()) == []
        assert _indices_from_ranges([]) == set()


class TestFolding:
    def test_epoch_tables_cover_every_epoch(self, campaign_store, small_bundle):
        aggregator = StoreAggregator(campaign_store)
        aggregator.refresh()
        assert aggregator.epoch_count() == small_bundle.schedule.epochs
        for epoch in range(aggregator.epoch_count()):
            table = aggregator.epoch_table(epoch)
            assert table["complete"] is True
            assert table["measured"] == table["fleet_size"]
            assert sum(table["verdicts"].values()) == table["measured"]

    def test_agreement_counts_cross_detectors(self, campaign_store):
        aggregator = StoreAggregator(campaign_store)
        aggregator.refresh()
        table = aggregator.epoch_table(0)
        # detector="both": every record carries a cert verdict too.
        assert sum(table["agreement"].values()) == table["measured"]
        assert sum(table["cert_verdicts"].values()) == table["measured"]

    def test_refresh_is_idempotent(self, campaign_store):
        aggregator = StoreAggregator(campaign_store)
        assert aggregator.refresh() > 0
        before = canonical_json(aggregator.trend())
        assert aggregator.refresh() == 0  # nothing new to fold
        assert canonical_json(aggregator.trend()) == before

    def test_trend_series_shape(self, campaign_store, small_bundle):
        aggregator = StoreAggregator(campaign_store)
        aggregator.refresh()
        trend = aggregator.trend()
        epochs = small_bundle.schedule.epochs
        assert len(trend["epochs"]) == epochs
        assert len(trend["series"]["measured"]) == epochs
        for counts in trend["series"]["verdicts"].values():
            assert len(counts) == epochs
        assert trend["complete"] is True
        assert trend["scenario"] == small_bundle.name

    def test_epoch_out_of_range(self, campaign_store):
        aggregator = StoreAggregator(campaign_store)
        aggregator.refresh()
        with pytest.raises(Exception, match="epoch"):
            aggregator.epoch_table(99)

    def test_corrupt_journal_surfaces(self, campaign_store, tmp_path):
        import shutil

        damaged = str(tmp_path / "damaged")
        shutil.copytree(campaign_store, damaged)
        journal = os.path.join(damaged, "journal")
        shard = sorted(os.listdir(journal))[0]
        path = os.path.join(journal, shard)
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
        lines[1] = b"{broken"
        with open(path, "wb") as handle:
            handle.write(b"\n".join(lines))
        aggregator = StoreAggregator(damaged)
        with pytest.raises(StoreCorruptError):
            aggregator.refresh()


class TestIncrementalEqualsRescan:
    def test_per_batch_refresh_matches_full(self, small_bundle, tmp_path):
        """Refreshing after every appended epoch folds to the same bytes
        as one rescan at the end — the subsystem's core invariant."""
        path = str(tmp_path / "live")
        live = StoreAggregator(path, persist=True)
        trends = []

        def epoch_done(_epoch):
            live.refresh()
            trends.append(canonical_json(live.trend()))

        LongitudinalCampaign(small_bundle).run(
            store=ResultStore(path), epoch_done=epoch_done
        )
        live.refresh()
        fresh = StoreAggregator(path)
        fresh.refresh()
        assert canonical_json(live.trend()) == canonical_json(fresh.trend())
        # Earlier snapshots were genuine prefixes, not the final state.
        assert len(set(trends)) == len(trends)

    def test_persisted_state_round_trips(self, small_bundle, tmp_path):
        path = str(tmp_path / "persist")
        LongitudinalCampaign(small_bundle).run(store=ResultStore(path))
        first = StoreAggregator(path, persist=True)
        first.refresh()
        reference = canonical_json(first.trend())
        # A second process loads state.json and folds nothing new.
        second = StoreAggregator(path, persist=True)
        assert second.refresh() == 0
        assert canonical_json(second.trend()) == reference

    def test_tables_written_to_disk(self, small_bundle, tmp_path):
        path = str(tmp_path / "tables")
        LongitudinalCampaign(small_bundle).run(store=ResultStore(path))
        aggregator = StoreAggregator(path, persist=True)
        aggregator.refresh()
        tables = os.path.join(path, "tables")
        names = sorted(os.listdir(tables))
        assert "state.json" in names and "trend.json" in names
        assert "epoch-0000.json" in names
        with open(os.path.join(tables, "trend.json"), encoding="utf-8") as fh:
            on_disk = fh.read()
        assert on_disk == canonical_json(aggregator.trend())

    def test_foreign_schema_state_is_rebuilt(self, small_bundle, tmp_path):
        path = str(tmp_path / "schema")
        LongitudinalCampaign(small_bundle).run(store=ResultStore(path))
        aggregator = StoreAggregator(path, persist=True)
        aggregator.refresh()
        state_path = os.path.join(path, "tables", "state.json")
        with open(state_path, encoding="utf-8") as handle:
            state = json.load(handle)
        state["schema"] = 99
        with open(state_path, "w", encoding="utf-8") as handle:
            json.dump(state, handle)
        rebuilt = StoreAggregator(path, persist=True)
        assert rebuilt.refresh() > 0  # discarded the foreign state, rescanned
        fresh = StoreAggregator(path)
        fresh.refresh()
        assert canonical_json(rebuilt.trend()) == canonical_json(fresh.trend())


class TestEpochPage:
    def test_pagination(self, campaign_store):
        full = load_epoch_page(campaign_store, 0, offset=0, limit=1000)
        assert full["total"] == len(full["probes"])
        page = load_epoch_page(campaign_store, 0, offset=2, limit=3)
        assert [p["index"] for p in page["probes"]] == [
            p["index"] for p in full["probes"][2:5]
        ]
        assert page["total"] == full["total"]

    def test_records_carry_verdicts(self, campaign_store):
        page = load_epoch_page(campaign_store, 1, limit=5)
        assert all("verdict" in p["record"] for p in page["probes"])

    def test_bad_parameters(self, campaign_store):
        with pytest.raises(ValueError):
            load_epoch_page(campaign_store, 0, offset=-1)
        with pytest.raises(ValueError):
            load_epoch_page(campaign_store, 0, limit=0)

    def test_unknown_epoch_is_empty(self, campaign_store):
        assert load_epoch_page(campaign_store, 42)["total"] == 0


def assert_pages_match_full_scan(path, sizes, aggregator):
    for epoch, offset, limit in page_grid(sizes):
        expected = canonical_json(full_scan_page(path, epoch, offset, limit))
        served = load_epoch_page(path, epoch, offset, limit, aggregator=aggregator)
        assert canonical_json(served) == expected, (epoch, offset, limit)


class TestEpochPageIndex:
    """Pages read at folded positions equal the original full scan."""

    @pytest.mark.parametrize("layout", ["resumed", "sharded"])
    def test_pages_match_full_scan(self, page_stores, layout):
        path = getattr(page_stores, layout)
        sizes = page_stores.campaign.epoch_sizes()
        aggregator = StoreAggregator(path)
        aggregator.refresh()
        assert_pages_match_full_scan(path, sizes, aggregator)
        for epoch, offset, limit in page_grid(sizes):
            offline = load_epoch_page(path, epoch, offset, limit)
            assert canonical_json(offline) == canonical_json(
                full_scan_page(path, epoch, offset, limit)
            )

    def test_stores_cover_replay_and_rotation(self, page_stores):
        entries = read_journal(os.path.join(page_stores.resumed, "journal"), "records")
        assert len(entries) == sum(page_stores.campaign.epoch_sizes()) + REPLAYED
        # The replayed records differ from the ones they repeat.
        page = load_epoch_page(page_stores.resumed, 0, limit=REPLAYED)
        replayed = [entry["record"] for entry in entries[-REPLAYED:]]
        assert [p["record"] for p in page["probes"]] != replayed
        shards = os.listdir(os.path.join(page_stores.sharded, "journal"))
        assert len(shards) > 10

    def test_refresh_between_synced_halves(self, page_stores, tmp_path):
        path = str(tmp_path / "halves")
        campaign = page_stores.campaign
        sizes = campaign.epoch_sizes()
        store = ResultStore(path)
        store.begin("longitudinal", campaign.fingerprint(), epoch_manifest(sizes))
        aggregator = StoreAggregator(path)
        for epoch, batch in sorted(page_stores.records.items()):
            pairs = list(enumerate(batch))
            half = len(pairs) // 2
            for segment in (pairs[:half], pairs[half:]):
                store.append(segment, epoch=epoch)
                store.sync()
                aggregator.refresh()
                assert_pages_match_full_scan(path, sizes, aggregator)
        store.close()

    def test_out_of_order_segments_page_by_index(self, page_stores, tmp_path):
        path = str(tmp_path / "reversed")
        campaign = page_stores.campaign
        sizes = campaign.epoch_sizes()
        store = ResultStore(path)
        store.begin("longitudinal", campaign.fingerprint(), epoch_manifest(sizes))
        aggregator = StoreAggregator(path)
        for epoch, batch in sorted(page_stores.records.items()):
            pairs = list(enumerate(batch))
            a, b = len(pairs) // 3, 2 * len(pairs) // 3
            for segment in (pairs[b:], pairs[:a], pairs[a:b]):
                store.append(segment, epoch=epoch)
                store.sync()
                aggregator.refresh()
                assert_pages_match_full_scan(path, sizes, aggregator)
        store.close()

    def test_positions_are_never_persisted(self, page_stores, tmp_path):
        path = str(tmp_path / "persisted")
        shutil.copytree(page_stores.sharded, path)
        StoreAggregator(path, persist=True).refresh()
        with open(os.path.join(path, "tables", "state.json"), encoding="utf-8") as fh:
            state = json.load(fh)
        assert set(state) == {"schema", "cursor", "epochs"}
        for folded in state["epochs"].values():
            assert set(folded) == {"seen", "online", *_COUNTER_KEYS}

    def test_restored_aggregator_refuses_to_page(self, page_stores, tmp_path):
        path = str(tmp_path / "restored")
        shutil.copytree(page_stores.sharded, path)
        StoreAggregator(path, persist=True).refresh()
        restored = StoreAggregator(path, persist=True)
        assert restored.refresh() == 0  # everything came from state.json
        with pytest.raises(StoreError, match="state.json"):
            load_epoch_page(path, 0, aggregator=restored)
        # An unmeasured epoch has nothing to miss.
        assert restored.epoch_page(5)["total"] == 0


class TestPlainStudyStores:
    def test_study_store_aggregates_as_one_epoch(self, tmp_path):
        from repro.atlas.population import generate_population
        from repro.core.study import StudyConfig, run_pilot_study

        path = str(tmp_path / "study")
        specs = generate_population(size=12, seed=4)
        run_pilot_study(specs, StudyConfig(seed=4), store=ResultStore(path))
        aggregator = StoreAggregator(path)
        aggregator.refresh()
        assert aggregator.epoch_count() == 1
        table = aggregator.epoch_table(0)
        assert table["measured"] == 12
        assert table["complete"] is True
