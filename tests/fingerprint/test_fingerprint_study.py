"""Fingerprinting wired through the study pipeline.

``StudyConfig(fingerprint=True)`` must stamp intercepted records with
the probed signature and the named software, stay byte-identical across
worker counts and engines, survive export round trips, and feed the
confusion table — while a plain study is bit-for-bit unaffected.
"""

import pytest

from repro.analysis.export import study_from_json, study_to_json
from repro.analysis.fingerprint_study import (
    UNIDENTIFIED,
    build_fingerprint_confusion,
)
from repro.atlas.geo import organization_by_name
from repro.core.study import StudyConfig, run_pilot_study
from repro.cpe.firmware import dnat_interceptor
from repro.interceptors.policy import intercept_all
from repro.resolvers.software import dnsmasq, pi_hole

from tests.conftest import make_spec

ORG = organization_by_name("Comcast")


def fleet():
    return [
        make_spec(
            ORG, probe_id=8001, firmware=dnat_interceptor(software=pi_hole("2.84"))
        ),
        make_spec(
            ORG, probe_id=8002, firmware=dnat_interceptor(software=dnsmasq("2.78"))
        ),
        make_spec(
            ORG,
            probe_id=8003,
            middlebox_policies=(intercept_all(),),
            resolver_key="powerdns-4.1.11",
        ),
        make_spec(ORG, probe_id=8004),  # clean
    ]


@pytest.fixture(scope="module")
def study():
    return run_pilot_study(fleet(), config=StudyConfig(fingerprint=True))


class TestConfigValidation:
    def test_fingerprint_needs_heuristic_locator(self):
        with pytest.raises(ValueError, match="heuristic"):
            StudyConfig(fingerprint=True, detector="cert")

    def test_fingerprint_composes_with_both(self):
        assert StudyConfig(fingerprint=True, detector="both").fingerprint

    def test_unknown_fingerprinter_rejected(self):
        from repro.core.fingerprint_probe import get_fingerprinter

        with pytest.raises(ValueError, match="unknown fingerprinter"):
            get_fingerprinter("timing")


class TestRecords:
    def test_intercepted_records_are_stamped(self, study):
        by_id = {r.probe_id: r for r in study.records}
        pi = by_id[8001]
        assert pi.fingerprint_software == "dnsmasq-pi-hole-2.84"
        assert pi.true_software == "dnsmasq-pi-hole-2.84"
        assert len(pi.fingerprint_signature) == 6
        assert by_id[8002].fingerprint_software == "dnsmasq-2.78"
        assert by_id[8003].fingerprint_software == "PowerDNS Recursor 4.1.11"

    def test_clean_record_left_empty(self, study):
        clean = next(r for r in study.records if r.probe_id == 8004)
        assert clean.fingerprint_signature == ()
        assert clean.fingerprint_software is None
        assert clean.true_software is None

    def test_plain_study_unaffected(self):
        plain = run_pilot_study(fleet(), config=StudyConfig())
        assert all(r.fingerprint_signature == () for r in plain.records)
        assert all(r.fingerprint_software is None for r in plain.records)


class TestInvariance:
    def test_workers_invariant(self, study):
        parallel = run_pilot_study(
            fleet(), config=StudyConfig(fingerprint=True, workers=2)
        )
        assert parallel.records == study.records

    def test_engine_invariant(self, study):
        reference = run_pilot_study(
            fleet(), config=StudyConfig(fingerprint=True, engine="reference")
        )
        assert reference.records == study.records


class TestExport:
    def test_round_trip(self, study):
        loaded = study_from_json(study_to_json(study))
        assert loaded.records == study.records
        assert loaded.config == study.config
        assert loaded.config.fingerprint is True

    def test_signature_serialized_as_list(self, study):
        import json

        data = json.loads(study_to_json(study))
        stamped = next(r for r in data["records"] if r["probe_id"] == 8001)
        assert isinstance(stamped["fingerprint_signature"], list)
        assert len(stamped["fingerprint_signature"]) == 6


class TestConfusionTable:
    def test_diagonal_over_fleet(self, study):
        table = build_fingerprint_confusion(study)
        assert table.total == 3  # the clean probe does not enter
        assert table.correct == 3
        assert table.accuracy == 1.0
        rendered = table.render()
        assert "dnsmasq-pi-hole-2.84" in rendered
        assert "NO" not in rendered.replace("NOERROR", "")

    def test_to_dict_is_stable(self, study):
        table = build_fingerprint_confusion(study)
        assert table.to_dict() == build_fingerprint_confusion(study).to_dict()
        assert table.to_dict()["matrix"]["dnsmasq-2.78"] == {"dnsmasq-2.78": 1}

    def test_plain_study_raises(self):
        plain = run_pilot_study([make_spec(ORG, probe_id=8010)], StudyConfig())
        with pytest.raises(ValueError, match="no fingerprint data"):
            build_fingerprint_confusion(plain)

    def test_unmatched_signature_labelled(self):
        from dataclasses import replace

        base = run_pilot_study(
            [
                make_spec(
                    ORG,
                    probe_id=8011,
                    firmware=dnat_interceptor(software=dnsmasq("2.80")),
                )
            ],
            StudyConfig(fingerprint=True),
        )
        record = replace(
            base.records[0], fingerprint_software=None, true_software=None
        )
        doctored = replace(base, records=[record])
        table = build_fingerprint_confusion(doctored)
        assert table.matrix == {(UNIDENTIFIED, UNIDENTIFIED): 1}


class TestCatalog:
    def test_scenario_bundle_parses_fingerprint(self):
        from repro.campaigns.catalog import bundle_from_dict

        bundle = bundle_from_dict(
            {
                "name": "fp",
                "population": {"size": 10, "seed": 1},
                "study": {"fingerprint": True},
                "schedule": {"epochs": 1},
            }
        )
        assert bundle.study.fingerprint is True

    def test_shipped_survey_scenario_loads(self):
        from repro.campaigns.catalog import load_bundle

        bundle = load_bundle("scenarios/fingerprint-survey.json")
        assert bundle.study.fingerprint is True
        assert bundle.study.detector == "both"


class TestCli:
    def test_fingerprint_flag_runs_and_prints_confusion(self, capsys):
        from repro.cli import main

        assert main(["study", "--size", "20", "--seed", "1", "--fingerprint"]) == 0
        out = capsys.readouterr().out
        assert "Fingerprint confusion" in out

    def test_fingerprint_rejects_cert_only_detector(self, capsys):
        from repro.cli import main

        assert (
            main(["study", "--size", "4", "--fingerprint", "--detector", "cert"]) == 2
        )
        assert "heuristic" in capsys.readouterr().err
