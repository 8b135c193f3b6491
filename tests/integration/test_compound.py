"""Compound configurations a reviewer would poke at."""

import random
from dataclasses import replace

import pytest

from repro import diagnose_household
from repro.atlas.campaign import Campaign, MeasurementDefinition
from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import MeasurementClient
from repro.atlas.scenario import build_scenario
from repro.core.classifier import LocatorVerdict
from repro.core.encrypted_probe import (
    EncryptedProfile,
    EncryptedStatus,
    probe_encrypted_provider,
)
from repro.cpe.firmware import dnat_interceptor
from repro.interceptors.encrypted import PASS_THROUGH
from repro.interceptors.policy import allow_only, intercept_all
from repro.net.impairment import LinkProfile
from repro.resolvers.public import PROVIDER_SPECS, Provider

from tests.conftest import make_spec

@pytest.fixture
def org():
    return organization_by_name("Comcast")


class TestDotThroughDnatCpe:
    def test_udp_hijacked_dot_clean_same_household(self, org):
        """A hijacking XB6 plus a DoT-capable ISP interceptor: UDP/53 is
        eaten by the CPE (so the middlebox never sees it), while DoT
        passes the CPE and is hijacked by the middlebox — two different
        interceptors visible on two different transports. The CPE's
        encrypted posture is forced to pass-through: this household's
        hijacker DNATs port 53 but leaves 853 unfirewalled."""
        dot_policy = replace(intercept_all(), intercept_dot=True)
        spec = make_spec(
            org,
            probe_id=2400,
            firmware=replace(dnat_interceptor(), encrypted_dns=PASS_THROUGH),
            middlebox_policies=[dot_policy],
        )
        sc = build_scenario(spec)
        client = MeasurementClient(sc.network, sc.host)

        # UDP: CPE verdict (nearest interceptor wins).
        result = diagnose_household(spec)
        assert result.verdict is LocatorVerdict.CPE

        # DoT opportunistic: hijacked by the *middlebox*.
        verdict = probe_encrypted_provider(
            client,
            Provider.GOOGLE,
            profile=EncryptedProfile.OPPORTUNISTIC,
            rng=random.Random(1),
        )
        assert verdict.status is EncryptedStatus.INTERCEPTED
        # And the middlebox's identity, not the CPE's, terminated it.
        assert verdict.exchange.observed_identity.startswith("dot.isp-resolver")


class TestAllowOnlyWithBogons:
    def test_partial_interception_still_localised(self, org):
        """allow_only(Quad9): three providers hijacked, one clean — the
        bogon check still pins the middlebox inside the ISP."""
        quad9 = list(PROVIDER_SPECS[Provider.QUAD9].v4_addresses)
        spec = make_spec(
            org,
            probe_id=2401,
            middlebox_policies=[allow_only(quad9, intercept_bogons=True)],
        )
        result = diagnose_household(spec)
        assert result.verdict is LocatorVerdict.WITHIN_ISP
        intercepted = set(result.detection.intercepted_providers(4))
        assert Provider.QUAD9 not in intercepted
        assert len(intercepted) == 3


class TestCampaignUnderConditions:
    def test_campaign_over_lossy_network_reports_timeouts(self, org):
        spec = make_spec(org, probe_id=2402)
        sc = build_scenario(spec)
        sc.network.loss_rng.seed(5)
        sc.network.set_link_profile("cpe", "access", LinkProfile(loss=0.999))
        rows = Campaign(
            [MeasurementDefinition(msm_id=1, target="8.8.8.8", qname="x.example.")]
        ).run_on_scenario(sc)
        assert rows[0].error == "timeout"

    def test_campaign_sees_spoofed_answers_as_normal(self, org):
        """From the row's perspective a hijacked answer is a normal
        answer — the row records what the client saw; detecting the lie
        is the analysis layer's job."""
        spec = make_spec(org, probe_id=2403, firmware=dnat_interceptor())
        sc = build_scenario(spec)
        rows = Campaign(
            [
                MeasurementDefinition(
                    msm_id=2, target="8.8.8.8", qname="www.example.com."
                )
            ]
        ).run_on_scenario(sc)
        assert rows[0].succeeded
        assert "93.184.216.34" in rows[0].answers


class TestVerdictStability:
    def test_repeat_classification_same_scenario_state(self, org):
        """Running the pipeline twice against fresh scenarios of the same
        spec yields identical verdicts — no hidden state leaks through
        the NAT/flow tables between runs."""
        spec = make_spec(org, probe_id=2404, middlebox_policies=[intercept_all()])
        first = diagnose_household(spec)
        second = diagnose_household(spec)
        assert first.verdict == second.verdict
        assert (
            first.transparency_class == second.transparency_class
        )
