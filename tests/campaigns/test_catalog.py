"""Scenario catalog: strict validation, loading, fingerprints."""

import json

import pytest

from repro.campaigns import (
    ScenarioError,
    bundle_from_dict,
    find_bundle,
    load_catalog,
)
from repro.campaigns.catalog import load_bundle
from repro.net.impairment import IMPAIRMENT_PROFILES

from .conftest import bundle_data


class TestValidation:
    def test_minimal_bundle(self):
        bundle = bundle_from_dict(
            {
                "name": "min",
                "population": {"size": 10, "seed": 1},
                "schedule": {"epochs": 1},
            }
        )
        assert bundle.name == "min"
        assert bundle.schedule.epochs == 1
        assert bundle.study.detector == "heuristic"
        assert bundle.study.metrics is False

    def test_full_bundle(self, small_bundle):
        assert small_bundle.population.size == 30
        assert small_bundle.study.detector == "both"
        assert small_bundle.schedule.churn.leave_rate == 0.06
        assert small_bundle.schedule.firmware_upgrades[0].profile == "xb6-fixed"
        assert small_bundle.schedule.policy_flips[0].fraction == 0.5

    @pytest.mark.parametrize("missing", ["name", "population", "schedule"])
    def test_missing_required_key(self, missing):
        data = bundle_data()
        del data[missing]
        with pytest.raises(ScenarioError, match=missing):
            bundle_from_dict(data)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match="surprise"):
            bundle_from_dict(bundle_data(surprise=1))

    def test_unknown_population_knob_rejected(self):
        data = bundle_data(population={"size": 10, "sede": 1})
        with pytest.raises(ScenarioError, match="sede"):
            bundle_from_dict(data)

    def test_unknown_study_key_rejected(self):
        data = bundle_data(study={"detectr": "both"})
        with pytest.raises(ScenarioError, match="detectr"):
            bundle_from_dict(data)

    def test_unknown_schedule_key_rejected(self):
        data = bundle_data(schedule={"epochs": 1, "epoch": 2})
        with pytest.raises(ScenarioError, match="'epoch'"):
            bundle_from_dict(data)

    def test_unknown_event_key_rejected(self):
        data = bundle_data(
            schedule={
                "epochs": 2,
                "firmware_upgrades": [
                    {"epoch": 1, "match_model": "XB6", "profil": "xb6-fixed"}
                ],
            }
        )
        with pytest.raises(ScenarioError, match="profil"):
            bundle_from_dict(data)

    def test_unknown_firmware_profile_rejected(self):
        data = bundle_data(
            schedule={
                "epochs": 2,
                "firmware_upgrades": [
                    {"epoch": 1, "match_model": "XB6", "profile": "xb7"}
                ],
            }
        )
        with pytest.raises(ScenarioError, match="xb7"):
            bundle_from_dict(data)

    def test_unknown_flip_action_rejected(self):
        data = bundle_data(
            schedule={
                "epochs": 2,
                "policy_flips": [{"epoch": 1, "action": "pause"}],
            }
        )
        with pytest.raises(ScenarioError, match="pause"):
            bundle_from_dict(data)

    def test_invalid_study_value_surfaces_as_scenario_error(self):
        data = bundle_data(study={"transport": "smtp"})
        with pytest.raises(ScenarioError, match="transport"):
            bundle_from_dict(data)

    def test_unknown_impairment_rejected(self):
        data = bundle_data(study={"impairment": "fog"})
        with pytest.raises(ScenarioError, match="fog"):
            bundle_from_dict(data)

    def test_named_impairment_resolves(self):
        data = bundle_data(study={"impairment": "residential", "retries": 2})
        bundle = bundle_from_dict(data)
        assert bundle.study.impairment == IMPAIRMENT_PROFILES["residential"]
        assert bundle.study.retry is not None
        assert bundle.study.retry.retries == 2

    def test_zero_retries_means_no_policy(self):
        bundle = bundle_from_dict(bundle_data(study={"retries": 0}))
        assert bundle.study.retry is None

    def test_epochs_must_be_positive(self):
        with pytest.raises(ScenarioError, match="epochs"):
            bundle_from_dict(bundle_data(schedule={"epochs": 0}))

    def test_non_object_scenario_rejected(self):
        with pytest.raises(ScenarioError, match="JSON object"):
            bundle_from_dict(["not", "a", "scenario"])


class TestFingerprint:
    def test_stable_across_instances(self):
        a = bundle_from_dict(bundle_data())
        b = bundle_from_dict(bundle_data())
        assert a.fingerprint() == b.fingerprint()

    def test_changes_with_schedule(self):
        a = bundle_from_dict(bundle_data())
        data = bundle_data()
        data["schedule"]["epochs"] = 4
        assert a.fingerprint() != bundle_from_dict(data).fingerprint()

    def test_summary_shape(self, small_bundle):
        summary = small_bundle.summary()
        assert summary["name"] == "test-campaign"
        assert summary["epochs"] == 3
        assert summary["fingerprint"] == small_bundle.fingerprint()
        assert summary["firmware_upgrades"][0]["match_model"] == "XB6"


class TestCatalogLoading:
    def test_load_bundle_file(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(bundle_data()))
        assert load_bundle(str(path)).name == "test-campaign"

    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError, match="bad.json"):
            load_bundle(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_bundle(str(tmp_path / "absent.json"))

    def test_load_catalog_sorted_and_named(self, tmp_path):
        (tmp_path / "b.json").write_text(json.dumps(bundle_data(name="beta")))
        (tmp_path / "a.json").write_text(json.dumps(bundle_data(name="alpha")))
        names = [b.name for b in load_catalog(str(tmp_path))]
        assert names == ["alpha", "beta"]

    def test_duplicate_names_rejected(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps(bundle_data()))
        (tmp_path / "b.json").write_text(json.dumps(bundle_data()))
        with pytest.raises(ScenarioError, match="duplicate"):
            load_catalog(str(tmp_path))

    def test_find_bundle_lists_catalog_on_miss(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps(bundle_data(name="alpha")))
        with pytest.raises(ScenarioError, match="alpha"):
            find_bundle("missing", str(tmp_path))

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_catalog(str(tmp_path / "nowhere"))


class TestCheckedInCatalog:
    """The repo's own scenarios/ directory must always validate."""

    def test_repo_catalog_loads(self):
        bundles = load_catalog("scenarios")
        names = {bundle.name for bundle in bundles}
        assert "ci-smoke" in names
        assert len(names) == len(bundles)

    def test_ci_smoke_is_small(self):
        bundle = find_bundle("ci-smoke", "scenarios")
        assert bundle.population.size * bundle.schedule.epochs <= 200
