"""Step 3: bogon queries (§3.3)."""

import random

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import MeasurementClient
from repro.atlas.scenario import build_scenario
from repro.core.isp_check import check_isp, default_bogon
from repro.cpe.firmware import dnat_interceptor
from repro.interceptors.policy import InterceptMode, intercept_all
from repro.net.addr import is_bogon

from tests.conftest import make_spec


@pytest.fixture
def org():
    return organization_by_name("Turk Telekom")


def run_check(org, probe_id, **spec_kw):
    sc = build_scenario(make_spec(org, probe_id=probe_id, **spec_kw))
    client = MeasurementClient(sc.network, sc.host)
    return check_isp(client, rng=random.Random(probe_id))


class TestDefaults:
    def test_default_bogons_are_bogons(self):
        assert is_bogon(default_bogon(4))
        assert is_bogon(default_bogon(6))

    def test_routable_destination_rejected(self, org):
        sc = build_scenario(make_spec(org, probe_id=700))
        client = MeasurementClient(sc.network, sc.host)
        with pytest.raises(ValueError):
            check_isp(client, bogon="8.8.8.8")


class TestCleanPath:
    def test_no_interceptor_no_answer(self, org):
        result = run_check(org, 701)
        assert not result.answered
        assert not result.within_isp


class TestIspInterceptor:
    def test_redirecting_middlebox_answers(self, org):
        result = run_check(
            org, 702, middlebox_policies=[intercept_all(intercept_bogons=True)]
        )
        assert result.within_isp

    def test_blocking_middlebox_also_proves_isp(self, org):
        """Probe 11992 got NOTIMP to its bogon query — an error status is
        still an answer, and answers prove in-AS interception."""
        from repro.dnswire import RCode

        result = run_check(
            org,
            703,
            middlebox_policies=[
                intercept_all(mode=InterceptMode.BLOCK, block_rcode=RCode.NOTIMP)
            ],
        )
        assert result.within_isp
        assert any(p.answered and p.observed_text() == "NOTIMP" for p in result.probes)

    def test_bogon_blind_interceptor_undetected(self, org):
        """§3.3's acknowledged ambiguity: an interceptor that discards
        unroutable-destination queries yields no answer."""
        result = run_check(
            org, 704, middlebox_policies=[intercept_all(intercept_bogons=False)]
        )
        assert not result.within_isp


class TestExternalInterceptor:
    def test_beyond_as_interceptor_never_sees_bogons(self, org):
        result = run_check(
            org, 705, external_policies=[intercept_all(intercept_bogons=True)]
        )
        # Border filtering killed the query before the external box.
        assert not result.within_isp


class TestCpeInterceptor:
    def test_cpe_interceptor_also_answers_bogons(self, org):
        """A DNAT CPE catches port-53 packets to any destination, so the
        bogon query is answered at hop 1 (the pipeline never reaches
        Step 3 for CPE verdicts, but the physics holds)."""
        result = run_check(org, 706, firmware=dnat_interceptor())
        assert result.answered


class TestProbeComposition:
    def test_two_probes_sent(self, org):
        result = run_check(org, 707)
        kinds = [p.kind for p in result.probes]
        assert kinds == ["control-a", "version-bind"]

    def test_version_bind_optional(self, org):
        sc = build_scenario(make_spec(org, probe_id=708))
        client = MeasurementClient(sc.network, sc.host)
        result = check_isp(client, include_version_bind=False)
        assert [p.kind for p in result.probes] == ["control-a"]
