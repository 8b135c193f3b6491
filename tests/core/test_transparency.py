"""The whoami.akamai.com transparency check (§4.1.2)."""

import random

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import MeasurementClient
from repro.atlas.scenario import build_scenario
from repro.core.transparency import (
    ProbeTransparency,
    ProviderTransparency,
    check_transparency,
)
from repro.cpe.firmware import dnat_interceptor
from repro.dnswire import RCode
from repro.interceptors.policy import (
    InterceptMode,
    InterceptionPolicy,
    intercept_all,
)
from repro.resolvers.public import Provider

from tests.conftest import make_spec

ALL = list(Provider)


@pytest.fixture
def org():
    return organization_by_name("Vodafone DE")


def run_check(org, probe_id, providers=ALL, **spec_kw):
    sc = build_scenario(make_spec(org, probe_id=probe_id, **spec_kw))
    client = MeasurementClient(sc.network, sc.host)
    return check_transparency(client, providers, rng=random.Random(probe_id))


def confirmed(result):
    return any(obs.confirms_interception for obs in result.observations)


class TestTransparent:
    def test_redirect_is_transparent_and_confirmed(self, org):
        result = run_check(org, 800, middlebox_policies=[intercept_all()])
        assert result.classification is ProbeTransparency.TRANSPARENT
        assert confirmed(result)
        for obs in result.observations:
            assert obs.classification is ProviderTransparency.TRANSPARENT
            assert obs.confirms_interception

    def test_cpe_interception_is_transparent(self, org):
        result = run_check(org, 801, firmware=dnat_interceptor())
        assert result.classification is ProbeTransparency.TRANSPARENT

    def test_clean_path_not_confirmed(self, org):
        """Against an honest path the whoami answer IS the provider's
        egress: transparency holds but interception is NOT confirmed."""
        result = run_check(org, 802)
        assert result.classification is ProbeTransparency.TRANSPARENT
        assert not confirmed(result)


class TestStatusModified:
    def test_block_is_status_modified(self, org):
        result = run_check(
            org,
            803,
            middlebox_policies=[
                intercept_all(mode=InterceptMode.BLOCK, block_rcode=RCode.SERVFAIL)
            ],
        )
        assert result.classification is ProbeTransparency.STATUS_MODIFIED
        assert not confirmed(result)

    def test_mixed_policies_are_both(self, org):
        policies = [
            InterceptionPolicy(
                mode=InterceptMode.BLOCK,
                targets=frozenset({"8.8.8.8", "8.8.4.4"}),
                block_rcode=RCode.REFUSED,
                intercept_bogons=False,
            ),
            intercept_all(mode=InterceptMode.REDIRECT),
        ]
        result = run_check(org, 804, middlebox_policies=policies)
        assert result.classification is ProbeTransparency.BOTH


class TestNoResponse:
    def test_drop_mode_unknown(self, org):
        result = run_check(
            org, 805, middlebox_policies=[intercept_all(mode=InterceptMode.DROP)]
        )
        assert result.classification is ProbeTransparency.UNKNOWN

    def test_empty_provider_list_unknown(self, org):
        result = run_check(org, 806, providers=[])
        assert result.classification is ProbeTransparency.UNKNOWN
