"""Step 1: location-query interception detection."""

import random

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import MeasurementClient
from repro.atlas.scenario import build_scenario
from repro.core.detector import (
    InterceptionStatus,
    detect_all,
    detect_provider,
)
from repro.cpe.firmware import dnat_interceptor
from repro.interceptors.policy import InterceptMode, intercept_all, intercept_only
from repro.resolvers.public import Provider

from tests.conftest import make_spec


@pytest.fixture
def org():
    return organization_by_name("Comcast")


def client_for_spec(org, **kw):
    sc = build_scenario(make_spec(org, **kw))
    return MeasurementClient(sc.network, sc.host), sc


class TestCleanPath:
    def test_all_providers_not_intercepted(self, org):
        client, _ = client_for_spec(org, probe_id=500)
        report = detect_all(client, rng=random.Random(1))
        for provider in Provider:
            verdict = report.verdict(provider, 4)
            assert verdict.status is InterceptionStatus.NOT_INTERCEPTED

    def test_both_addresses_probed(self, org):
        client, _ = client_for_spec(org, probe_id=501)
        verdict = detect_provider(client, Provider.GOOGLE, rng=random.Random(2))
        assert len(verdict.probes) == 2
        assert {p.address for p in verdict.probes} == {"8.8.8.8", "8.8.4.4"}

    def test_single_address_mode(self, org):
        client, _ = client_for_spec(org, probe_id=502)
        verdict = detect_provider(
            client, Provider.GOOGLE, rng=random.Random(2), both_addresses=False
        )
        assert len(verdict.probes) == 1


class TestInterceptedPath:
    def test_cpe_interceptor_detected_on_all(self, org):
        client, _ = client_for_spec(org, probe_id=503, firmware=dnat_interceptor())
        report = detect_all(client, rng=random.Random(3))
        for provider in Provider:
            assert report.verdict(provider, 4).intercepted
        assert report.all_intercepted(4)
        assert report.intercepted_providers(4) == [
            Provider.CLOUDFLARE,
            Provider.GOOGLE,
            Provider.QUAD9,
            Provider.OPENDNS,
        ]

    def test_isp_interceptor_detected(self, org):
        client, _ = client_for_spec(
            org, probe_id=504, middlebox_policies=[intercept_all()]
        )
        report = detect_all(client, rng=random.Random(4))
        assert report.any_intercepted(4)

    def test_targeted_interception_partial(self, org):
        client, _ = client_for_spec(
            org,
            probe_id=505,
            middlebox_policies=[intercept_only(["8.8.8.8", "8.8.4.4"])],
        )
        report = detect_all(client, rng=random.Random(5))
        assert report.verdict(Provider.GOOGLE, 4).intercepted
        assert not report.verdict(Provider.CLOUDFLARE, 4).intercepted
        assert not report.all_intercepted(4)
        assert report.intercepted_providers(4) == [Provider.GOOGLE]

    def test_block_mode_detected_as_interception(self, org):
        """Error statuses are non-standard answers: intercepted."""
        client, _ = client_for_spec(
            org,
            probe_id=506,
            middlebox_policies=[intercept_all(mode=InterceptMode.BLOCK)],
        )
        report = detect_all(client, rng=random.Random(6))
        assert report.any_intercepted(4)


class TestTimeoutConservatism:
    def test_drop_mode_is_no_response_not_interception(self, org):
        """§3.1: 'we conservatively assume that timeouts are not due to
        transparent interception'."""
        client, _ = client_for_spec(
            org,
            probe_id=507,
            middlebox_policies=[intercept_all(mode=InterceptMode.DROP)],
        )
        report = detect_all(client, rng=random.Random(7))
        for provider in Provider:
            verdict = report.verdict(provider, 4)
            assert verdict.status is InterceptionStatus.NO_RESPONSE
            assert not verdict.intercepted
        assert not report.any_intercepted(4)


class TestFamilies:
    def test_v6_skipped_without_address(self, org):
        client, _ = client_for_spec(org, probe_id=508, has_ipv6=False)
        report = detect_all(client, families=(4, 6), rng=random.Random(8))
        assert report.verdict(Provider.GOOGLE, 6) is None
        assert report.verdict(Provider.GOOGLE, 4) is not None

    def test_v6_measured_when_capable(self, org):
        client, _ = client_for_spec(org, probe_id=509, has_ipv6=True)
        report = detect_all(client, families=(4, 6), rng=random.Random(9))
        assert report.verdict(Provider.GOOGLE, 6) is not None
        assert not report.any_intercepted(6)

    def test_skip_masks_measurements(self, org):
        client, _ = client_for_spec(org, probe_id=510)
        report = detect_all(
            client,
            rng=random.Random(10),
            skip={(Provider.QUAD9, 4)},
        )
        assert report.verdict(Provider.QUAD9, 4) is None
        assert not report.responded_all(4)
