"""The Liu et al. prevalence baseline, and its blind spot."""

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import MeasurementClient
from repro.atlas.scenario import build_scenario
from repro.core.baseline import (
    BaselineStatus,
    PrevalenceExperiment,
)
from repro.cpe.firmware import dnat_interceptor
from repro.interceptors.policy import intercept_all
from repro.resolvers.directory import build_default_directory
from repro.resolvers.public import Provider

from tests.conftest import make_spec


@pytest.fixture
def org():
    return organization_by_name("Comcast")


def setup(org, probe_id, **spec_kw):
    directory = build_default_directory()
    sc = build_scenario(make_spec(org, probe_id=probe_id, **spec_kw), directory=directory)
    experiment = PrevalenceExperiment(directory, seed=probe_id)
    client = MeasurementClient(sc.network, sc.host)
    return experiment, client


class TestCleanPath:
    def test_google_egress_observed(self, org):
        experiment, client = setup(org, 1800)
        verdict = experiment.probe(client, Provider.GOOGLE, probe_id=1800)
        assert verdict.status is BaselineStatus.NOT_INTERCEPTED
        assert verdict.observed_egress is not None
        assert verdict.observed_egress.startswith(("172.253.", "74.125."))

    def test_all_providers_clean(self, org):
        experiment, client = setup(org, 1801)
        verdicts = [experiment.probe(client, p, probe_id=1801) for p in Provider]
        assert all(v.status is BaselineStatus.NOT_INTERCEPTED for v in verdicts)

    def test_unique_names_per_probe(self, org):
        experiment, client = setup(org, 1802)
        a = experiment.mint_name(1)
        b = experiment.mint_name(1)
        assert a != b


class TestDetection:
    def test_cpe_interceptor_detected(self, org):
        experiment, client = setup(org, 1803, firmware=dnat_interceptor())
        verdict = experiment.probe(client, Provider.GOOGLE, probe_id=1803)
        assert verdict.intercepted
        # The authoritative saw the *ISP resolver's* egress.
        assert verdict.observed_egress is not None

    def test_isp_interceptor_detected(self, org):
        experiment, client = setup(
            org, 1804, middlebox_policies=[intercept_all()]
        )
        verdict = experiment.probe(client, Provider.GOOGLE, probe_id=1804)
        assert verdict.intercepted

    def test_external_interceptor_detected(self, org):
        experiment, client = setup(
            org, 1805, external_policies=[intercept_all()]
        )
        verdict = experiment.probe(client, Provider.GOOGLE, probe_id=1805)
        assert verdict.intercepted


class TestTheBlindSpot:
    def test_baseline_cannot_localise(self, org):
        """The decisive comparison: for three different interceptor
        *locations* the baseline's observable — 'a non-Google egress
        asked my authoritative' — is the SAME KIND of evidence. Only the
        paper's technique separates them."""
        observations = {}
        for label, kwargs in (
            ("cpe", dict(firmware=dnat_interceptor())),
            ("isp", dict(middlebox_policies=[intercept_all()])),
            ("beyond", dict(external_policies=[intercept_all()])),
        ):
            experiment, client = setup(org, 1806, **kwargs)
            verdict = experiment.probe(client, Provider.GOOGLE, probe_id=1806)
            assert verdict.intercepted, label
            observations[label] = verdict.status
        # All three yield the identical status: INTERCEPTED, no location.
        assert len(set(observations.values())) == 1

    def test_paper_technique_does_localise_same_households(self, org):
        from repro import diagnose_household
        from repro.core.classifier import LocatorVerdict

        verdicts = {}
        for label, kwargs in (
            ("cpe", dict(firmware=dnat_interceptor())),
            ("isp", dict(middlebox_policies=[intercept_all()])),
            ("beyond", dict(external_policies=[intercept_all()])),
        ):
            result = diagnose_household(make_spec(org, probe_id=1807, **kwargs))
            verdicts[label] = result.verdict
        assert verdicts["cpe"] is LocatorVerdict.CPE
        assert verdicts["isp"] is LocatorVerdict.WITHIN_ISP
        assert verdicts["beyond"] is LocatorVerdict.UNKNOWN
        assert len(set(verdicts.values())) == 3


class TestErrors:
    def test_requires_controlled_zone(self):
        from repro.resolvers.directory import NameDirectory

        with pytest.raises(ValueError):
            PrevalenceExperiment(NameDirectory())
