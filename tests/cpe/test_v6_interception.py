"""IPv6 DNAT interception at the CPE (the rare Table-4 cases)."""

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import MeasurementClient
from repro.atlas.scenario import build_scenario
from repro.cpe.firmware import dnat_interceptor
from repro.dnswire import QType, make_query
from repro.dnswire.chaosnames import make_version_bind_query

from tests.conftest import make_spec
from tests.simstate import make_id_server_query


@pytest.fixture
def dual_stack_interceptor():
    org = organization_by_name("Ziggo")
    spec = make_spec(
        org,
        probe_id=1300,
        firmware=dnat_interceptor(v4=True, v6=True),
        has_ipv6=True,
    )
    sc = build_scenario(spec)
    return sc, MeasurementClient(sc.network, sc.host)


class TestV6Dnat:
    def test_both_families_intercept(self, dual_stack_interceptor):
        sc, _client = dual_stack_interceptor
        assert sc.cpe.intercepts_family(4)
        assert sc.cpe.intercepts_family(6)

    def test_v6_location_query_hijacked(self, dual_stack_interceptor):
        _sc, client = dual_stack_interceptor
        result = client.exchange(
            "2606:4700:4700::1111", make_id_server_query(msg_id=1)
        )
        # dnsmasq answers NXDOMAIN for id.server: non-standard.
        assert result.response is not None
        texts = result.response.txt_strings()
        assert not texts or not (len(texts[0]) == 3 and texts[0].isupper())

    def test_v6_version_bind_matches_cpe(self, dual_stack_interceptor):
        sc, client = dual_stack_interceptor
        via_resolver = client.exchange(
            "2001:4860:4860::8888", make_version_bind_query(msg_id=2)
        )
        via_cpe = client.exchange(
            sc.cpe_public_v6, make_version_bind_query(msg_id=3)
        )
        assert via_resolver.response.txt_strings() == via_cpe.response.txt_strings()
        assert via_resolver.response.txt_strings()[0].startswith("dnsmasq-")

    def test_v6_resolution_still_transparent(self, dual_stack_interceptor):
        _sc, client = dual_stack_interceptor
        result = client.exchange(
            "2001:4860:4860::8888",
            make_query("www.example.com.", QType.AAAA, msg_id=4),
        )
        assert result.response.aaaa_addresses()

    def test_pipeline_verdict_cpe(self):
        from repro import diagnose_household
        from repro.core.classifier import LocatorVerdict

        org = organization_by_name("Ziggo")
        spec = make_spec(
            org,
            probe_id=1301,
            firmware=dnat_interceptor(v4=True, v6=True),
            has_ipv6=True,
        )
        result = diagnose_household(spec)
        assert result.verdict is LocatorVerdict.CPE
        assert result.detection.any_intercepted(4)
        assert result.detection.any_intercepted(6)


class TestV6OnlyDnat:
    def test_v6_only_interceptor(self):
        org = organization_by_name("Ziggo")
        spec = make_spec(
            org,
            probe_id=1302,
            firmware=dnat_interceptor(v4=False, v6=True),
            has_ipv6=True,
        )
        sc = build_scenario(spec)
        client = MeasurementClient(sc.network, sc.host)
        v4 = client.exchange("1.1.1.1", make_id_server_query(msg_id=1))
        assert v4.response.txt_strings()[0].isupper()  # v4 clean
        v6 = client.exchange(
            "2606:4700:4700::1111", make_version_bind_query(msg_id=2)
        )
        assert v6.response.txt_strings()[0].startswith("dnsmasq-")  # v6 hijacked
