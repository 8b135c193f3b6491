"""The recurring campaign engine: epoch fleets, determinism, resume."""

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.campaigns import (
    CampaignSchedule,
    ChurnSpec,
    FirmwareUpgrade,
    LongitudinalCampaign,
    PolicyFlip,
    bundle_from_dict,
    load_catalog,
)
from repro.core import parallel, study
from repro.store import ResultStore, StoreInterrupted

from .conftest import bundle_data, journal_bytes


class TestScheduleDataclasses:
    def test_churn_rates_validated(self):
        with pytest.raises(ValueError, match="leave_rate"):
            ChurnSpec(leave_rate=1.0)
        with pytest.raises(ValueError, match="join_rate"):
            ChurnSpec(join_rate=-0.1)

    def test_upgrade_validated(self):
        with pytest.raises(ValueError, match="profile"):
            FirmwareUpgrade(epoch=1, match_model="XB6", profile="nope")
        with pytest.raises(ValueError, match="epoch"):
            FirmwareUpgrade(epoch=0, match_model="XB6", profile="xb6-fixed")
        with pytest.raises(ValueError, match="fraction"):
            FirmwareUpgrade(
                epoch=1, match_model="XB6", profile="xb6-fixed", fraction=0.0
            )

    def test_flip_validated(self):
        with pytest.raises(ValueError, match="action"):
            PolicyFlip(epoch=1, action="pause")
        with pytest.raises(ValueError, match="epoch"):
            PolicyFlip(epoch=-1, action="stop-intercepting")

    def test_schedule_needs_an_epoch(self):
        with pytest.raises(ValueError, match="epochs"):
            CampaignSchedule(epochs=0)


class TestEpochFleets:
    def test_epoch_zero_is_the_base_population(self, small_bundle):
        campaign = LongitudinalCampaign(small_bundle)
        fleet = campaign.epoch_fleet(0)
        assert len(fleet) == small_bundle.population.size
        assert [spec.probe_id for spec in fleet] == sorted(
            spec.probe_id for spec in fleet
        )

    def test_fleet_is_pure_per_epoch(self, small_bundle):
        a = LongitudinalCampaign(small_bundle)
        b = LongitudinalCampaign(small_bundle)
        # Derive in different orders; each epoch must come out identical.
        fleets_a = [a.epoch_fleet(e) for e in (2, 0, 1)]
        fleets_b = [b.epoch_fleet(e) for e in (0, 1, 2)]
        assert fleets_a[1] == fleets_b[0]
        assert fleets_a[2] == fleets_b[1]
        assert fleets_a[0] == fleets_b[2]

    def test_leavers_are_monotone(self, small_bundle):
        campaign = LongitudinalCampaign(small_bundle)
        base_ids = {spec.probe_id for spec in campaign.epoch_fleet(0)}
        previous = base_ids
        for epoch in range(1, small_bundle.schedule.epochs):
            surviving = {
                spec.probe_id
                for spec in campaign.epoch_fleet(epoch)
                if spec.probe_id in base_ids
            }
            assert surviving <= previous  # once gone, gone for good
            previous = surviving

    def test_joiners_get_fresh_ids(self, small_bundle):
        campaign = LongitudinalCampaign(small_bundle)
        base_ids = {spec.probe_id for spec in campaign.epoch_fleet(0)}
        joined = [
            spec.probe_id
            for spec in campaign.epoch_fleet(2)
            if spec.probe_id not in base_ids
        ]
        assert joined  # join_rate 0.07 over 30 probes joins ~2/epoch
        assert all(probe_id >= 500_000 for probe_id in joined)

    def test_firmware_upgrade_applies_from_its_epoch(self, small_bundle):
        campaign = LongitudinalCampaign(small_bundle)
        before = [
            spec for spec in campaign.epoch_fleet(0)
            if spec.firmware.model == "XB6"
        ]
        assert before and any(s.firmware.is_interceptor for s in before)
        for epoch in (1, 2):
            xb6 = [
                spec for spec in campaign.epoch_fleet(epoch)
                if spec.firmware.model == "XB6"
            ]
            assert all(not spec.firmware.is_interceptor for spec in xb6)

    def test_policy_flip_clears_some_isp_policies(self, small_bundle):
        campaign = LongitudinalCampaign(small_bundle)

        def intercepting(epoch):
            return {
                spec.probe_id
                for spec in campaign.epoch_fleet(epoch)
                if spec.isp.middlebox_policies
            }

        assert intercepting(2) < intercepting(1)  # flip at epoch 2, 50%

    def test_start_intercepting_flip(self):
        data = bundle_data()
        data["schedule"]["policy_flips"] = [
            {"epoch": 1, "action": "start-intercepting", "fraction": 0.4}
        ]
        campaign = LongitudinalCampaign(bundle_from_dict(data))
        def intercepting(epoch):
            return {
                spec.probe_id
                for spec in campaign.epoch_fleet(epoch)
                if spec.isp.middlebox_policies
            }
        assert intercepting(1) > intercepting(0)

    def test_epoch_out_of_range(self, small_bundle):
        campaign = LongitudinalCampaign(small_bundle)
        with pytest.raises(ValueError, match="epoch"):
            campaign.epoch_fleet(3)

    def test_fingerprint_covers_fleet_derivation(self, small_bundle):
        data = bundle_data()
        data["schedule"]["churn"]["leave_rate"] = 0.2
        other = bundle_from_dict(data)
        assert (
            LongitudinalCampaign(small_bundle).fingerprint()
            != LongitudinalCampaign(other).fingerprint()
        )


class TestRunDeterminism:
    def test_in_memory_run_matches_stored_run(self, small_bundle, tmp_path):
        plain = LongitudinalCampaign(small_bundle).run()
        stored = LongitudinalCampaign(small_bundle).run(
            store=ResultStore(str(tmp_path / "s"))
        )
        assert plain == stored

    def test_journal_worker_invariant(self, small_bundle, tmp_path):
        LongitudinalCampaign(small_bundle).run(
            store=ResultStore(str(tmp_path / "w1")), workers=1
        )
        LongitudinalCampaign(small_bundle).run(
            store=ResultStore(str(tmp_path / "w3")), workers=3
        )
        assert journal_bytes(tmp_path / "w1") == journal_bytes(tmp_path / "w3")

    def test_budget_interrupt_and_resume_identical(self, small_bundle, tmp_path):
        reference = str(tmp_path / "ref")
        LongitudinalCampaign(small_bundle).run(
            store=ResultStore(reference), workers=1
        )
        resumed = str(tmp_path / "resumed")
        with pytest.raises(StoreInterrupted) as excinfo:
            LongitudinalCampaign(small_bundle).run(
                store=ResultStore(resumed, probe_budget=20), workers=2
            )
        assert excinfo.value.done == 20
        # Second session (different worker count) finishes the journal.
        result = LongitudinalCampaign(small_bundle).run(
            store=ResultStore(resumed, resume=True), workers=1
        )
        assert journal_bytes(tmp_path / "ref") == journal_bytes(resumed)
        assert set(result) == set(range(small_bundle.schedule.epochs))

    def test_epoch_done_fires_per_epoch(self, small_bundle, tmp_path):
        seen = []
        LongitudinalCampaign(small_bundle).run(
            store=ResultStore(str(tmp_path / "s")),
            epoch_done=seen.append,
        )
        assert seen == list(range(small_bundle.schedule.epochs))

    def test_progress_counts_probes(self, small_bundle, tmp_path):
        calls = []
        LongitudinalCampaign(small_bundle).run(
            store=ResultStore(str(tmp_path / "s")),
            progress=lambda done, total: calls.append((done, total)),
        )
        campaign = LongitudinalCampaign(small_bundle)
        total = sum(campaign.epoch_sizes())
        assert calls[-1] == (total, total)


# -- one measurement session per run -------------------------------------------

#: Every scheduled bundle of the catalog, shrunk so the whole set runs
#: serially in seconds while later epochs still repeat earlier scenarios.
SCHEDULED = [
    bundle
    for bundle in load_catalog(str(Path(__file__).resolve().parents[2] / "scenarios"))
    if bundle.schedule.epochs > 1
]
SESSION_POPULATION = 48


def shrunk(bundle, **study_fields):
    return dataclasses.replace(
        bundle,
        population=dataclasses.replace(bundle.population, size=SESSION_POPULATION),
        study=dataclasses.replace(bundle.study, **study_fields),
    )


@pytest.fixture
def measured(monkeypatch):
    """How many probes the serial path has really measured (dedup hits
    and other workers' probes are not counted)."""
    calls = [0]
    measure_probe = study.measure_probe

    def counting(*args, **kwargs):
        calls[0] += 1
        return measure_probe(*args, **kwargs)

    monkeypatch.setattr(study, "measure_probe", counting)
    return calls


def run_counting(campaign, measured, **kwargs):
    """``campaign.run(**kwargs)`` plus its measurements per epoch."""
    marks = [measured[0]]
    records = campaign.run(
        epoch_done=lambda _epoch: marks.append(measured[0]), **kwargs
    )
    return records, [after - before for before, after in zip(marks, marks[1:])]


@pytest.fixture
def pools(monkeypatch):
    """Every pool the fleet executor builds, each remembering the size
    of every shard it was given and how it was shut down (``None``
    while it is still open)."""
    built = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.shard_sizes = []
            self.shutdown_cancel = None
            built.append(self)

        def submit(self, fn, shard, /, *args, **kwargs):
            self.shard_sizes.append(len(shard))
            return super().submit(fn, shard, *args, **kwargs)

        def shutdown(self, wait=True, *, cancel_futures=False):
            self.shutdown_cancel = cancel_futures
            super().shutdown(wait=wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
    return built


class TestSessionPerRun:
    @pytest.mark.parametrize("bundle", SCHEDULED, ids=lambda bundle: bundle.name)
    def test_later_epochs_reuse_earlier_measurements(self, bundle, measured):
        campaign = LongitudinalCampaign(shrunk(bundle))
        records, session_calls = run_counting(campaign, measured, workers=1)

        # The same epoch fleets, one single-use session each.
        config = campaign._study_config(1)
        loop_records, loop_calls = {}, []
        for epoch in range(campaign.schedule.epochs):
            before = measured[0]
            loop_records[epoch] = parallel.measure_fleet(
                campaign.epoch_fleet(epoch), config
            ).records
            loop_calls.append(measured[0] - before)
        reference = LongitudinalCampaign(shrunk(bundle, engine="reference")).run(
            workers=1
        )

        assert records == loop_records == reference
        assert session_calls[0] == loop_calls[0]
        if config.retry is None and config.impairment is None:
            assert sum(session_calls[1:]) < sum(loop_calls[1:])
            assert all(a <= b for a, b in zip(session_calls, loop_calls))
        else:  # retries and impairment turn dedup off
            assert session_calls == loop_calls

    @pytest.mark.parametrize("stored", [False, True], ids=["memory", "store"])
    def test_one_pool_per_run(self, small_bundle, tmp_path, pools, stored):
        campaign = LongitudinalCampaign(small_bundle)
        store = ResultStore(str(tmp_path / "s")) if stored else None
        epochs = campaign.run(store=store, workers=2)
        assert len(epochs) == small_bundle.schedule.epochs == 3
        assert len(pools) == 1
        assert pools[0].shutdown_cancel is False

    def test_pool_closed_on_budget_interrupt(self, small_bundle, tmp_path, pools):
        campaign = LongitudinalCampaign(small_bundle)
        budget = len(campaign.epoch_fleet(0)) + 10  # ends inside epoch 1
        with pytest.raises(StoreInterrupted):
            campaign.run(
                store=ResultStore(str(tmp_path / "s"), probe_budget=budget),
                workers=2,
            )
        assert len(pools) == 1
        assert pools[0].shutdown_cancel is True

    def test_pool_closed_when_epoch_done_raises(self, small_bundle, tmp_path, pools):
        def fail_at_epoch_one(epoch):
            if epoch == 1:
                raise RuntimeError("observer failed")

        with pytest.raises(RuntimeError, match="observer failed"):
            LongitudinalCampaign(small_bundle).run(
                store=ResultStore(str(tmp_path / "s")),
                workers=2,
                epoch_done=fail_at_epoch_one,
            )
        assert len(pools) == 1
        assert pools[0].shutdown_cancel is True

    def test_second_run_starts_cold(self, small_bundle, pools, measured):
        campaign = LongitudinalCampaign(small_bundle)
        first, first_calls = run_counting(campaign, measured, workers=1)
        second, second_calls = run_counting(campaign, measured, workers=1)
        assert second == first
        assert second_calls[0] == first_calls[0] > 0
        assert pools == []
        campaign.run(workers=2)
        campaign.run(workers=2)
        assert len(pools) == 2
        assert all(pool.shutdown_cancel is False for pool in pools)


def submitted(pools) -> int:
    """How many specs the fleet executor's pools were sent."""
    return sum(sum(pool.shard_sizes) for pool in pools)


class TestPoolSeesDistinctMeasurements:
    """Dedup lives in the driver: a pool is only sent measurements that
    nobody in the session has made yet."""

    @pytest.mark.parametrize("bundle", SCHEDULED, ids=lambda bundle: bundle.name)
    def test_pool_submits_what_a_serial_run_measures(self, bundle, pools, measured):
        campaign = LongitudinalCampaign(shrunk(bundle))
        serial = campaign.run(workers=1)
        assert pools == []
        pooled = campaign.run(workers=2)
        assert pooled == serial
        assert len(pools) == 1
        assert submitted(pools) == measured[0] > 0

    def test_one_key_fleet_submits_one_spec(self, pools):
        from repro.atlas.geo import organization_by_name

        from tests.conftest import make_spec

        # One household shape homed in four organizations: the
        # organization only labels a record, so it is one measurement.
        orgs = [
            organization_by_name(name)
            for name in ("Comcast", "Deutsche Telekom", "Telstra", "Rostelecom")
        ]
        fleet = [make_spec(orgs[i % len(orgs)], probe_id=700 + i) for i in range(12)]
        records = parallel.measure_fleet(fleet, study.StudyConfig(workers=3)).records
        assert pools[0].shard_sizes == [1]
        assert [record.probe_id for record in records] == [
            spec.probe_id for spec in fleet
        ]
        assert records == parallel.measure_fleet(
            fleet, study.StudyConfig(workers=1, engine="reference")
        ).records


def _dedup_off_configs():
    from repro.atlas.retry import ExponentialBackoffRetry
    from repro.net.impairment import impairment_profile

    return {
        "metrics": {"metrics": True},
        "impairment": {
            "impairment": impairment_profile("residential"),
            "impairment_seed": 5,
        },
        "retry": {"retry": ExponentialBackoffRetry(retries=2, seed=5)},
    }


class TestDedupOffPoolPath:
    @pytest.mark.parametrize("name", sorted(_dedup_off_configs()))
    def test_pool_submits_every_probe(self, name, pools):
        from repro.atlas.population import generate_population

        fields = _dedup_off_configs()[name]
        fleet = generate_population(size=40, seed=31)
        serial = parallel.measure_fleet(
            fleet, study.StudyConfig(workers=1, seed=31, **fields)
        )
        pooled = parallel.measure_fleet(
            fleet, study.StudyConfig(workers=2, seed=31, **fields)
        )
        assert submitted(pools) == len(fleet)
        assert pooled.records == serial.records
        if name == "metrics":
            assert pooled.metrics.to_json() == serial.metrics.to_json()
        else:
            assert pooled.metrics is serial.metrics is None
