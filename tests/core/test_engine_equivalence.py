"""Fast-engine vs reference-engine equivalence — the engine contract.

The fast engine layers per-personality answer templates, scenario reuse
and probe dedup under the measurement pipeline. None of that may be
observable: records, metrics snapshots and store journals must be
byte-identical to the reference engine (no dedup, no answer templates,
every probe measured on a fresh topology; the codec, address and route
memos and the heap event queue are shared by both) at any worker count,
clean or impaired. These tests *are* the certification of
every shortcut; weakening them weakens the contract.
"""

from collections import defaultdict

import pytest

from repro.atlas.population import generate_population
from repro.core.parallel import _dedup_key
from repro.core.study import StudyConfig, run_pilot_study
from repro.net.impairment import impairment_profile
from repro.store import ResultStore, StoreInterrupted

#: Big enough that the generated fleet contains offline probes, dual-stack
#: probes, interceptors at every location, *and* repeated scenario
#: signatures (so scenario reuse and probe dedup actually engage).
FLEET_SIZE = 48
SEED = 2021


@pytest.fixture(scope="module")
def fleet():
    return generate_population(size=FLEET_SIZE, seed=SEED)


#: The evasion axis only produces outcomes on *intercepted* probes, and
#: at 48 probes this seed draws none — the encrypted tests need a fleet
#: big enough to contain blockers, downgraders and DoH-evadable CPEs.
EVASION_FLEET_SIZE = 240


@pytest.fixture(scope="module")
def evasion_fleet():
    return generate_population(size=EVASION_FLEET_SIZE, seed=SEED)


def run(fleet, engine, workers=1, impair=None, **kwargs):
    config = StudyConfig(
        workers=workers,
        engine=engine,
        impairment=impairment_profile(impair) if impair else None,
        impairment_seed=11,
        **kwargs,
    )
    return run_pilot_study(fleet, config)


class TestRecordEquivalence:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("impair", [None, "residential"])
    def test_records_identical(self, fleet, workers, impair):
        fast = run(fleet, "fast", workers=workers, impair=impair)
        reference = run(fleet, "reference", workers=workers, impair=impair)
        assert fast.records == reference.records

    def test_dedup_engages_and_substitutes_identity(self, fleet):
        """The serial fast path must dedup at least one probe on this
        fleet, across organizations too (otherwise the test fleet
        stopped exercising the memo), and the substituted identity
        fields must match each probe's spec."""
        homes = defaultdict(set)
        for spec in fleet:
            homes[_dedup_key(spec)].add(spec.organization)
        assert len(homes) < len(fleet), "fleet has no duplicate measurements"
        assert any(len(orgs) > 1 for orgs in homes.values()), (
            "no measurement is shared by two organizations"
        )
        records = run(fleet, "fast").records
        for spec, record in zip(fleet, records):
            assert record.probe_id == spec.probe_id
            assert record.organization == spec.organization.name
            assert record.asn == spec.asn
            assert record.country == spec.country
            assert record.true_location == spec.true_location().value


class TestMetricsEquivalence:
    @pytest.mark.parametrize("impair", [None, "residential"])
    def test_snapshots_identical_modulo_wall_clock(self, fleet, impair):
        """``to_dict()`` omits wall-clock timings — everything else
        (counters, histograms, event log) must match exactly. Metrics
        runs disable the answer-template caches and probe dedup, so this
        also proves those gates work."""
        fast = run(fleet, "fast", impair=impair, metrics=True)
        reference = run(fleet, "reference", impair=impair, metrics=True)
        assert fast.records == reference.records
        assert fast.metrics.to_dict() == reference.metrics.to_dict()


class TestStoreEquivalence:
    def test_journal_reconstruction_matches_reference(self, fleet, tmp_path):
        stored = run_pilot_study(
            fleet,
            StudyConfig(workers=1, engine="fast"),
            store=ResultStore(str(tmp_path / "fast")),
        )
        reference = run(fleet, "reference")
        assert stored.records == reference.records

    def test_resume_may_mix_engines(self, fleet, tmp_path):
        """``engine`` is a run-shape knob like ``workers``: it is
        excluded from the store fingerprint, so a study interrupted
        under one engine resumes under the other and the journal-
        reconstructed result is still byte-identical."""
        path = str(tmp_path / "mixed")
        with pytest.raises(StoreInterrupted):
            run_pilot_study(
                fleet,
                StudyConfig(workers=1, engine="reference"),
                store=ResultStore(path, probe_budget=10),
            )
        resumed = run_pilot_study(
            fleet,
            StudyConfig(workers=1, engine="fast"),
            store=ResultStore(path, resume=True),
        )
        plain = run(fleet, "fast")
        assert resumed.records == plain.records


class TestEncryptedFleetEquivalence:
    """The evasion axis must honour the same contract: records identical
    across engines and worker counts when every intercepted probe is
    retried over an encrypted transport."""

    @pytest.mark.parametrize("transport", ["dot", "doh"])
    def test_records_identical_across_engines(self, evasion_fleet, transport):
        fast = run(evasion_fleet, "fast", transport=transport, evasion=True)
        reference = run(
            evasion_fleet, "reference", transport=transport, evasion=True
        )
        assert fast.records == reference.records
        assert any(r.evasion_outcome is not None for r in fast.records)

    def test_records_identical_across_workers(self, evasion_fleet):
        serial = run(
            evasion_fleet, "fast", workers=1, transport="doh", evasion=True
        )
        sharded = run(
            evasion_fleet, "fast", workers=3, transport="doh", evasion=True
        )
        assert serial.records == sharded.records
        assert any(r.evasion_outcome is not None for r in serial.records)


class TestScenarioReset:
    """``reset_scenario`` must rewind encrypted session state.

    Both terminating proxies keep per-connection state keyed by the LAN
    client's (address, port): the CPE engine's consumed-DoQ-stream set
    and the middlebox's encrypted flow/stream tables. Scenario reuse
    rewinds ephemeral ports, so a stale entry collides with the next
    probe's first session — the DoQ stream-reuse guard then kills a
    perfectly fresh query. These tests failed before ``reset_scenario``
    learned to clear that state; each node's ``reset`` clears it now."""

    def _doq_verdict(self, scenario):
        import random

        from repro.atlas.measurement import MeasurementClient
        from repro.core.encrypted_probe import (
            EncryptedProfile,
            probe_encrypted_provider,
        )
        from repro.resolvers.public import Provider

        client = MeasurementClient(scenario.network, scenario.host)
        return probe_encrypted_provider(
            client,
            Provider.GOOGLE,
            transport="doq",
            profile=EncryptedProfile.OPPORTUNISTIC,
            rng=random.Random(5),
        )

    def _roundtrip(self, sspec):
        from repro.atlas.scenario import build_scenario, reset_scenario
        from repro.core.encrypted_probe import EncryptedStatus

        scenario = build_scenario(sspec)
        first = self._doq_verdict(scenario)
        assert first.status is EncryptedStatus.INTERCEPTED
        reset_scenario(scenario, sspec)
        second = self._doq_verdict(scenario)
        # Pre-fix: the stale stream set flagged the fresh query as a
        # reused stream and dropped it (NO_RESPONSE).
        assert second.status is EncryptedStatus.INTERCEPTED
        assert second.exchange.observed_identity == first.exchange.observed_identity

    def test_cpe_downgrade_state_rewinds(self):
        from repro.atlas.geo import organization_by_name
        from repro.atlas.scenario import ScenarioSpec
        from repro.cpe.firmware import xb6_profile

        from tests.conftest import make_spec

        org = organization_by_name("Comcast")
        sspec = ScenarioSpec(
            probe=make_spec(org, probe_id=7301, firmware=xb6_profile(buggy=True))
        )
        self._roundtrip(sspec)

    def test_middlebox_downgrade_state_rewinds(self):
        from dataclasses import replace

        from repro.atlas.geo import organization_by_name
        from repro.atlas.scenario import ScenarioSpec
        from repro.interceptors.encrypted import downgrade_all
        from repro.interceptors.policy import intercept_all

        from tests.conftest import make_spec

        org = organization_by_name("Comcast")
        policy = replace(intercept_all(), encrypted=downgrade_all())
        sspec = ScenarioSpec(
            probe=make_spec(org, probe_id=7302, middlebox_policies=[policy])
        )
        self._roundtrip(sspec)


class TestEngineValidation:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            StudyConfig(engine="warp")

    def test_engine_survives_config_round_trip(self):
        from repro.analysis.export import config_from_dict, config_to_dict

        config = StudyConfig(engine="reference")
        # Like workers, engine shapes *how* a run executes, not what it
        # measures: exports intentionally omit it and round-trip to the
        # default.
        assert config_from_dict(config_to_dict(config)).engine == "fast"
