"""Shared fixtures: organizations, probe specs, and built scenarios."""

from __future__ import annotations

import random

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import MeasurementClient
from repro.atlas.probe import IspBehavior, ProbeSpec
from repro.atlas.scenario import build_scenario
from repro.cpe.firmware import honest_router, open_wan_forwarder, xb6_profile
from repro.interceptors.policy import InterceptMode, intercept_all


@pytest.fixture
def comcast():
    return organization_by_name("Comcast")


@pytest.fixture
def rng():
    return random.Random(1234)


def make_spec(
    organization,
    probe_id=5000,
    firmware=None,
    middlebox_policies=(),
    external_policies=(),
    has_ipv6=False,
    resolver_key="unbound-1.9.0",
    resolver_outside_as=False,
):
    """Terse ProbeSpec construction for tests."""
    return ProbeSpec(
        probe_id=probe_id,
        organization=organization,
        firmware=firmware or honest_router(),
        isp=IspBehavior(
            resolver_software_key=resolver_key,
            middlebox_policies=tuple(middlebox_policies),
            resolver_outside_as=resolver_outside_as,
        ),
        external_policies=tuple(external_policies),
        has_ipv6=has_ipv6,
    )


@pytest.fixture
def honest_scenario(comcast):
    return build_scenario(make_spec(comcast, probe_id=1))


@pytest.fixture
def xb6_scenario(comcast):
    return build_scenario(make_spec(comcast, probe_id=2, firmware=xb6_profile()))


@pytest.fixture
def isp_redirect_scenario(comcast):
    return build_scenario(
        make_spec(
            comcast,
            probe_id=3,
            middlebox_policies=[intercept_all(mode=InterceptMode.REDIRECT)],
        )
    )


@pytest.fixture
def external_scenario(comcast):
    return build_scenario(
        make_spec(
            comcast,
            probe_id=4,
            external_policies=[intercept_all(mode=InterceptMode.REDIRECT)],
        )
    )


@pytest.fixture
def open_forwarder_scenario(comcast):
    return build_scenario(
        make_spec(comcast, probe_id=5, firmware=open_wan_forwarder())
    )


def client_for(scenario) -> MeasurementClient:
    return MeasurementClient(scenario.network, scenario.host)


@pytest.fixture(scope="session")
def page_stores(tmp_path_factory):
    """Campaign stores for the probe-page parity tests of both
    tests/campaigns and tests/serve, measured once per session."""
    from .campaigns.conftest import build_page_stores

    return build_page_stores(tmp_path_factory.mktemp("pages"))
