"""Certificate cross-validation: the detector matrix and its invariants.

The heart of the agreement study: for each firmware x policy class the
two detectors must land exactly where the design says — including the
class the heuristic *cannot* see (standard answer content relayed under
a foreign certificate) and the classes where the cert detector must
abstain rather than guess (port-853 firewalls, SNI blocklists).
"""

import json
import random

import pytest

from repro.analysis.agreement import build_agreement_table
from repro.analysis.export import study_to_json
from repro.atlas.geo import organization_by_name
from repro.atlas.population import generate_population
from repro.atlas.probe import IspBehavior, ProbeSpec
from repro.core.cert_validate import (
    CertCause,
    CertFetch,
    CertObservation,
    CertReport,
    CertVerdict,
    validate_certificates,
)
from repro.core.classifier import LocatorVerdict
from repro.core.study import (
    StudyConfig,
    classification_to_record,
    measure_probe,
    run_pilot_study,
)
from repro.cpe.firmware import (
    dnat_interceptor,
    honest_router,
    pihole_profile,
    xb6_profile,
)
from repro.interceptors.encrypted import downgrade_all
from repro.interceptors.policy import (
    InterceptMode,
    InterceptionPolicy,
    intercept_all,
)

from tests.conftest import make_spec


def measure_both(spec):
    classification = measure_probe(spec, StudyConfig(detector="both"))
    return classification_to_record(spec, classification, detector="both")


def org():
    return organization_by_name("Comcast")


class TestDetectorMatrix:
    """Firmware x policy x detector: every class lands where designed."""

    def test_honest_probe_clean_on_both(self):
        record = measure_both(make_spec(org(), probe_id=900))
        assert record.verdict == LocatorVerdict.NOT_INTERCEPTED.value
        assert record.cert_verdict == CertVerdict.NOT_INTERCEPTED.value
        assert record.cert_cause is None

    def test_xb6_downgrade_flagged_by_both(self):
        record = measure_both(
            make_spec(org(), probe_id=901, firmware=xb6_profile())
        )
        assert record.verdict == LocatorVerdict.CPE.value
        assert record.cert_verdict == CertVerdict.INTERCEPTED.value
        assert record.cert_cause == CertCause.FOREIGN_CERT.value

    def test_dnat_port_block_degrades_to_inconclusive(self):
        # The firmware firewalls port 853: the canary answers (DNAT'd)
        # but every cert fetch dies. The detector must abstain, not
        # report NOT_INTERCEPTED (the PR-3 degradation contract).
        record = measure_both(
            make_spec(org(), probe_id=902, firmware=dnat_interceptor())
        )
        assert record.verdict == LocatorVerdict.CPE.value
        assert record.cert_verdict == CertVerdict.INCONCLUSIVE.value
        assert record.cert_cause == CertCause.FETCH_BLOCKED.value

    def test_pihole_sni_blocklist_degrades_to_inconclusive(self):
        # The fetch dials the provider name as SNI — exactly what the
        # pi-hole blocklists — so the session itself is killed.
        record = measure_both(
            make_spec(org(), probe_id=903, firmware=pihole_profile())
        )
        assert record.verdict == LocatorVerdict.CPE.value
        assert record.cert_verdict == CertVerdict.INCONCLUSIVE.value
        assert record.cert_cause == CertCause.FETCH_BLOCKED.value

    def test_encrypted_only_middlebox_heuristic_blind_cert_flags(self):
        # The acceptance class: plaintext port 53 untouched (heuristic
        # scores the probe clean) while every encrypted session is
        # terminated-and-downgraded under the middlebox's own identity.
        policy = InterceptionPolicy(
            mode=InterceptMode.REDIRECT,
            plaintext=False,
            encrypted=downgrade_all(),
            intercept_bogons=False,
        )
        record = measure_both(
            make_spec(org(), probe_id=904, middlebox_policies=[policy])
        )
        assert record.verdict == LocatorVerdict.NOT_INTERCEPTED.value
        assert record.cert_verdict == CertVerdict.INTERCEPTED.value
        assert record.cert_cause == CertCause.FOREIGN_CERT.value

    def test_content_only_redirect_cert_clean(self):
        # A plain plaintext redirect with no encrypted opinion: the
        # alternate resolver answers genuine content and the DoT fetch
        # passes through to the real provider — the certificate side
        # has nothing to complain about.
        policy = intercept_all(mode=InterceptMode.REDIRECT)
        record = measure_both(
            make_spec(org(), probe_id=905, middlebox_policies=[policy])
        )
        assert record.verdict == LocatorVerdict.WITHIN_ISP.value
        assert record.cert_verdict == CertVerdict.NOT_INTERCEPTED.value
        assert record.cert_cause is None

    def test_block_policy_leaves_nothing_to_fetch(self):
        policy = intercept_all(mode=InterceptMode.BLOCK)
        record = measure_both(
            make_spec(org(), probe_id=906, middlebox_policies=[policy])
        )
        assert record.cert_verdict == CertVerdict.INCONCLUSIVE.value
        assert record.cert_cause == CertCause.NO_USABLE_ANSWER.value

    def test_nxdomain_wildcard_caught_by_canary(self):
        spec = ProbeSpec(
            probe_id=907,
            organization=org(),
            firmware=honest_router(),
            isp=IspBehavior(
                resolver_software_key="unbound-1.9.0",
                middlebox_policies=(
                    intercept_all(mode=InterceptMode.REDIRECT),
                ),
                nxdomain_wildcard_to="203.0.113.80",
            ),
        )
        record = measure_both(spec)
        assert record.verdict == LocatorVerdict.WITHIN_ISP.value
        assert record.cert_verdict == CertVerdict.INTERCEPTED.value
        assert record.cert_cause == CertCause.NXDOMAIN_REWRITE.value

    def test_offline_probe_is_no_data(self):
        spec = ProbeSpec(
            probe_id=908,
            organization=org(),
            firmware=honest_router(),
            online=False,
        )
        record = measure_both(spec)
        assert record.verdict == LocatorVerdict.NO_DATA.value
        assert record.cert_verdict is None


class TestCertDetectorAlone:
    def test_cert_only_probe(self):
        from repro.atlas.measurement import MeasurementClient
        from repro.atlas.scenario import build_scenario

        spec = make_spec(org(), probe_id=910, firmware=xb6_profile())
        scenario = build_scenario(spec)
        client = MeasurementClient(scenario.network, scenario.host)
        report = validate_certificates(client, rng=random.Random(910))
        assert report.verdict is CertVerdict.INTERCEPTED
        assert report.cause is CertCause.FOREIGN_CERT
        assert any(o.foreign for o in report.observations)

    def test_skip_respected(self):
        from repro.atlas.measurement import MeasurementClient
        from repro.atlas.scenario import build_scenario
        from repro.resolvers.public import Provider

        spec = make_spec(org(), probe_id=911)
        scenario = build_scenario(spec)
        client = MeasurementClient(scenario.network, scenario.host)
        skip = [(p, 4) for p in Provider]
        report = validate_certificates(
            client, rng=random.Random(911), skip=skip
        )
        assert report.verdict is CertVerdict.NO_DATA
        assert not report.observations


class TestAggregationPriority:
    """Unit-level: the (verdict, cause) collapse ranks evidence right."""

    def _observation(self, fetches, canary_answered=True):
        from repro.atlas.measurement import ExchangeResult
        from repro.dnswire import QType, make_query
        from repro.resolvers.public import Provider

        obs = CertObservation(
            provider=Provider.CLOUDFLARE,
            qname="one.one.one.one.",
            expected_identity="one.one.one.one",
            known_addresses=frozenset({"1.1.1.1"}),
        )
        if canary_answered:
            from repro.atlas.measurement import ExchangeStatus
            from repro.net.addr import parse_ip

            query = make_query("one.one.one.one.", QType.A, msg_id=1)
            obs.canary = ExchangeResult(
                query=query,
                destination=parse_ip("1.1.1.1"),
                response=query.reply(),
                status=ExchangeStatus.ANSWERED,
            )
        obs.fetches = fetches
        return obs

    def test_timed_out_fetch_is_blocked_not_clean(self):
        # A fetch with no exchange at all (chaos loss, dead session)
        # must degrade to INCONCLUSIVE, never NOT_INTERCEPTED.
        fetch = CertFetch(
            address="1.1.1.1", expected_identity="one.one.one.one"
        )
        assert fetch.blocked and not fetch.matched
        report = CertReport(observations=[self._observation([fetch])])
        verdict, cause = (
            report.observations[0].all_fetches_blocked,
            None,
        )
        assert verdict is True
        from repro.core.cert_validate import _aggregate

        verdict, cause = _aggregate(report)
        assert verdict is CertVerdict.INCONCLUSIVE
        assert cause is CertCause.FETCH_BLOCKED

    def test_no_observations_is_no_data(self):
        from repro.core.cert_validate import _aggregate

        verdict, cause = _aggregate(CertReport())
        assert verdict is CertVerdict.NO_DATA
        assert cause is None


class TestStudyInvariance:
    """detector="both" keeps the engine/worker/store guarantees."""

    @pytest.fixture(scope="class")
    def fleet(self):
        return generate_population(size=60, seed=31)

    def test_workers_one_equals_three(self, fleet):
        one = run_pilot_study(
            fleet, StudyConfig(seed=31, detector="both", workers=1)
        )
        three = run_pilot_study(
            fleet, StudyConfig(seed=31, detector="both", workers=3)
        )
        assert study_to_json(one) == study_to_json(three)

    def test_fast_equals_reference(self, fleet):
        fast = run_pilot_study(
            fleet, StudyConfig(seed=31, detector="both", engine="fast")
        )
        reference = run_pilot_study(
            fleet, StudyConfig(seed=31, detector="both", engine="reference")
        )
        assert fast.records == reference.records

    def test_store_resume_mid_agreement_study(self, fleet, tmp_path):
        from repro.store import ResultStore, StoreInterrupted

        config = StudyConfig(seed=31, detector="both", workers=1)
        direct = run_pilot_study(fleet, config)
        path = str(tmp_path / "agreement-store")
        with pytest.raises(StoreInterrupted):
            run_pilot_study(
                fleet, config, store=ResultStore(path, probe_budget=20)
            )
        resumed = run_pilot_study(
            fleet, config, store=ResultStore(path, resume=True)
        )
        assert study_to_json(resumed) == study_to_json(direct)
        direct_table = build_agreement_table(direct).to_dict()
        resumed_table = build_agreement_table(resumed).to_dict()
        assert json.dumps(resumed_table) == json.dumps(direct_table)

    def test_detector_in_config_round_trip(self, fleet):
        from repro.analysis.export import study_from_json

        study = run_pilot_study(
            fleet[:5], StudyConfig(seed=31, detector="both")
        )
        loaded = study_from_json(study_to_json(study))
        assert loaded.config.detector == "both"
        assert [r.detector for r in loaded.records] == [
            r.detector for r in study.records
        ]
        assert [r.cert_verdict for r in loaded.records] == [
            r.cert_verdict for r in study.records
        ]

    def test_cert_detector_rejects_evasion(self):
        with pytest.raises(ValueError, match="evasion"):
            StudyConfig(detector="cert", evasion=True, transport="dot")

    def test_unknown_detector_rejected(self):
        with pytest.raises(ValueError, match="detector"):
            StudyConfig(detector="palmistry")


class TestAgreementTable:
    def test_whole_catalog_agreement(self):
        fleet = generate_population(size=200, seed=17)
        study = run_pilot_study(fleet, StudyConfig(seed=17, detector="both"))
        table = build_agreement_table(study)
        assert table.total == sum(table.matrix.values())
        # The cert detector must flag at least one probe the heuristic
        # scored clean (the encrypted-only downgrade class).
        assert (
            table.count(
                LocatorVerdict.NOT_INTERCEPTED.value,
                CertVerdict.INTERCEPTED.value,
            )
            >= 1
        )
        rendered = table.render()
        assert "Detector agreement" in rendered
        data = table.to_dict()
        assert data["total"] == table.total
        assert data["agreeing"] == table.agreeing

    def test_heuristic_only_study_rejected(self):
        fleet = generate_population(size=10, seed=17)
        study = run_pilot_study(fleet, StudyConfig(seed=17))
        with pytest.raises(ValueError, match="agreement"):
            build_agreement_table(study)
