"""Per-probe scenario construction."""

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.scenario import (
    ScenarioCache,
    ScenarioSpec,
    build_scenario,
    resolver_software,
)
from repro.cpe.firmware import dnat_interceptor
from repro.interceptors.policy import intercept_all
from repro.resolvers import build_default_directory

from tests.conftest import make_spec
from tests.simstate import are_connected


@pytest.fixture
def org():
    return organization_by_name("Free SAS")


class TestAddressing:
    def test_wan_inside_org_prefix(self, org):
        import ipaddress

        sc = build_scenario(make_spec(org, probe_id=77))
        assert sc.cpe_public_v4 in ipaddress.ip_network(org.v4_prefix)

    def test_distinct_probes_distinct_wans(self, org):
        a = build_scenario(make_spec(org, probe_id=1))
        b = build_scenario(make_spec(org, probe_id=2))
        assert a.cpe_public_v4 != b.cpe_public_v4

    def test_deterministic_addressing(self, org):
        a = build_scenario(make_spec(org, probe_id=5))
        b = build_scenario(make_spec(org, probe_id=5))
        assert a.cpe_public_v4 == b.cpe_public_v4

    def test_ipv6_only_when_enabled(self, org):
        without = build_scenario(make_spec(org, probe_id=6, has_ipv6=False))
        assert without.cpe_public_v6 is None
        assert without.host.address_for_family(6) is None
        with_v6 = build_scenario(make_spec(org, probe_id=6, has_ipv6=True))
        assert with_v6.cpe_public_v6 is not None
        assert with_v6.host.address_for_family(6) is not None

    def test_reused_host_sources_follow_rehoming(self, org):
        """Two probes with one signature share a scenario; the second
        probe's host must send from its own delegated v6 address, not
        the memoised answer of the first."""
        cache = ScenarioCache(build_default_directory())
        cache.keep_next = True  # the first probe's signature recurs
        first = cache.get(ScenarioSpec(make_spec(org, probe_id=11, has_ipv6=True)))
        first_v6 = first.host.address_for_family(6)
        second_spec = make_spec(org, probe_id=12, has_ipv6=True)
        second = cache.get(ScenarioSpec(second_spec))
        assert second is first
        fresh = build_scenario(second_spec)
        assert second.host.address_for_family(6) == fresh.host.address_for_family(6)
        assert second.host.address_for_family(6) != first_v6
        assert second.host.address_for_family(4) == fresh.host.address_for_family(4)
        sock = second.host.open_socket()
        pkt = sock.sendto(b"x", "2001:4860:4860::8888", 53)
        assert pkt.src == fresh.host.address_for_family(6)

    def test_v6_inside_org_prefix(self, org):
        import ipaddress

        sc = build_scenario(make_spec(org, probe_id=7, has_ipv6=True))
        assert sc.cpe_public_v6 in ipaddress.ip_network(org.v6_prefix)


class TestTopology:
    def test_no_middlebox_without_policy(self, org):
        sc = build_scenario(make_spec(org, probe_id=8))
        assert sc.middlebox is None
        assert "middlebox" not in sc.network.nodes

    def test_middlebox_present_with_policy(self, org):
        sc = build_scenario(
            make_spec(org, probe_id=9, middlebox_policies=[intercept_all()])
        )
        assert sc.middlebox is not None
        assert are_connected(sc.network, "access", "middlebox")

    def test_external_present_with_policy(self, org):
        sc = build_scenario(
            make_spec(org, probe_id=10, external_policies=[intercept_all()])
        )
        assert sc.external is not None
        assert "offas-resolver" in sc.network.nodes

    def test_all_providers_attached(self, org):
        sc = build_scenario(make_spec(org, probe_id=11))
        assert len(sc.providers) == 4
        for node in sc.providers.values():
            assert are_connected(sc.network, "core", node.name)

    def test_resolver_inside_as_by_default(self, org):
        import ipaddress

        sc = build_scenario(make_spec(org, probe_id=12))
        v4 = next(a for a in sc.isp_resolver.addresses() if a.version == 4)
        assert v4 in ipaddress.ip_network(org.v4_prefix)
        assert are_connected(sc.network, "border", "isp-resolver")

    def test_resolver_outside_as_variant(self, org):
        import ipaddress

        from repro.atlas.scenario import HOSTED_DNS_V4_PREFIX

        sc = build_scenario(
            make_spec(org, probe_id=13, resolver_outside_as=True)
        )
        v4 = next(a for a in sc.isp_resolver.addresses() if a.version == 4)
        assert v4 in HOSTED_DNS_V4_PREFIX
        assert are_connected(sc.network, "core", "isp-resolver")

    def test_cpe_model_from_firmware(self, org):
        sc = build_scenario(
            make_spec(org, probe_id=14, firmware=dnat_interceptor(model="custom"))
        )
        assert sc.cpe.model == "custom"


class TestScenarioSpecInput:
    @pytest.mark.filterwarnings("error")
    def test_bare_probe_spec_is_shorthand(self, org):
        """A bare ProbeSpec builds exactly what ``ScenarioSpec(probe=...)``
        builds, silently."""
        spec = make_spec(org, probe_id=800)
        bare = build_scenario(spec)
        assert bare.scenario_spec == ScenarioSpec(probe=spec)
        assert not bare.network.recorder.enabled
        wrapped = build_scenario(ScenarioSpec(probe=spec))
        assert bare.cpe_public_v4 == wrapped.cpe_public_v4
        assert sorted(bare.network.nodes) == sorted(wrapped.network.nodes)

    def test_scenario_spec_trace_enables_recorder(self, org):
        scenario = build_scenario(
            ScenarioSpec(probe=make_spec(org, probe_id=801), trace=True)
        )
        assert scenario.network.recorder.enabled


class TestResolverSoftwareRegistry:
    def test_known_keys(self):
        for key in (
            "unbound-1.9.0",
            "unbound-1.13.1",
            "unbound-hidden",
            "powerdns-4.1.11",
            "bind-redhat",
            "bind-9.16.15",
        ):
            assert resolver_software(key) is not None

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            resolver_software("totally-made-up")
