"""The calibrated fleet generator."""

from collections import Counter

import pytest

from repro.atlas.population import (
    CPE_TRUE_SOFTWARE,
    PopulationConfig,
    PopulationGenerator,
    example_probe_specs,
    generate_population,
)
from repro.atlas.probe import InterceptorLocation
from repro.interceptors.policy import InterceptMode


class TestDeterminism:
    def test_same_seed_same_fleet(self):
        a = generate_population(size=300, seed=42)
        b = generate_population(size=300, seed=42)
        assert [s.probe_id for s in a] == [s.probe_id for s in b]
        assert [s.organization.name for s in a] == [s.organization.name for s in b]
        assert [s.true_location() for s in a] == [s.true_location() for s in b]

    def test_different_seed_differs(self):
        a = generate_population(size=300, seed=1)
        b = generate_population(size=300, seed=2)
        assert [s.organization.name for s in a] != [s.organization.name for s in b]

    def test_size_respected(self):
        assert len(generate_population(size=500, seed=1)) == 500

    def test_probe_ids_unique(self):
        specs = generate_population(size=400, seed=3)
        ids = [s.probe_id for s in specs]
        assert len(ids) == len(set(ids))


class TestComposition:
    @pytest.fixture(scope="class")
    def fleet(self):
        return generate_population(size=2000, seed=7)

    def test_interceptor_share_scales(self, fleet):
        intercepted = [
            s for s in fleet if s.true_location() is not InterceptorLocation.NONE
        ]
        # design: ~226 per 9800 -> ~46 per 2000 (sampling jitter allowed)
        assert 25 <= len(intercepted) <= 70

    def test_location_mix(self, fleet):
        locations = Counter(s.true_location() for s in fleet)
        assert locations[InterceptorLocation.CPE] >= 3
        assert locations[InterceptorLocation.ISP] >= locations[InterceptorLocation.CPE]
        assert locations[InterceptorLocation.BEYOND] >= 1

    def test_v6_share(self, fleet):
        share = sum(1 for s in fleet if s.has_ipv6) / len(fleet)
        assert 0.33 <= share <= 0.45

    def test_most_probes_respond(self, fleet):
        online = sum(1 for s in fleet if s.online)
        assert online / len(fleet) > 0.96

    def test_per_provider_response_flags(self, fleet):
        for index in range(4):
            rate = sum(1 for s in fleet if s.responds_v4[index]) / len(fleet)
            assert rate > 0.97

    def test_cpe_interceptors_have_forwarders(self, fleet):
        for spec in fleet:
            if spec.true_location() is InterceptorLocation.CPE:
                assert spec.firmware.software is not None

    def test_honest_probes_have_no_plaintext_policies(self, fleet):
        # Encrypted-only middleboxes (plaintext=False) may sit on a
        # ground-truth-NONE probe: they never touch port 53, so the
        # plaintext locator's ground truth stays NONE by design.
        for spec in fleet:
            if spec.true_location() is InterceptorLocation.NONE:
                assert not any(p.plaintext for p in spec.isp.middlebox_policies)
                assert not any(p.plaintext for p in spec.external_policies)

    def test_fleet_has_encrypted_only_interceptors(self, fleet):
        encrypted_only = [
            s
            for s in fleet
            if s.true_location() is InterceptorLocation.NONE
            and any(not p.plaintext for p in s.isp.middlebox_policies)
        ]
        assert encrypted_only
        for spec in encrypted_only:
            for policy in spec.isp.middlebox_policies:
                assert policy.encrypted is not None

    def test_some_isp_redirects_monetise_nxdomain(self, fleet):
        monetising = [s for s in fleet if s.isp.nxdomain_wildcard_to]
        assert monetising
        for spec in monetising:
            assert any(
                p.plaintext and p.mode is InterceptMode.REDIRECT
                for p in spec.isp.middlebox_policies
            )


class TestCpeSoftwareMix:
    def test_true_cpe_mix_is_47(self):
        assert len(CPE_TRUE_SOFTWARE) == 47

    def test_mix_families(self):
        families = Counter(sw.family for sw in CPE_TRUE_SOFTWARE)
        assert families["dnsmasq-*"] == 23
        assert families["dnsmasq-pi-hole-*"] == 8
        assert families["unbound*"] == 4  # +2 misclassified = Table 5's 6
        assert families["*-RedHat"] == 2


class TestExampleProbes:
    def test_ids(self):
        assert set(example_probe_specs()) == {1053, 11992, 21823}

    def test_1053_clean(self):
        spec = example_probe_specs()[1053]
        assert spec.true_location() is InterceptorLocation.NONE

    def test_11992_isp(self):
        spec = example_probe_specs()[11992]
        assert spec.true_location() is InterceptorLocation.ISP
        assert spec.firmware.wan_port53_open

    def test_21823_cpe(self):
        spec = example_probe_specs()[21823]
        assert spec.true_location() is InterceptorLocation.CPE


class TestScaling:
    def test_full_size_uses_design_counts(self):
        config = PopulationConfig(size=9800, seed=5)
        specs = PopulationGenerator(config).generate()
        locations = Counter(s.true_location() for s in specs)
        # 47 ground-truth CPE interceptors; the 2 open-forwarder
        # limitation cases are ISP ground truth (Step 2 will *classify*
        # them as CPE, totalling the paper's 49).
        assert locations[InterceptorLocation.CPE] == 47
        assert locations[InterceptorLocation.CPE] + locations[
            InterceptorLocation.ISP
        ] + locations[InterceptorLocation.BEYOND] == 226
