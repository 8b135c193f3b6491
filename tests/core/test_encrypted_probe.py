"""Encrypted-transport interception detection (§6 future work #2).

Grew out of the DoT-only probe tests; now parametrised across DoT, DoH
and DoQ wherever the behaviour under test is transport-generic.
"""

import random
from dataclasses import replace

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import ExchangeStatus, MeasurementClient
from repro.atlas.scenario import build_scenario
from repro.core.encrypted_probe import (
    EncryptedProfile,
    EncryptedStatus,
    EvasionOutcome,
    probe_encrypted_all,
    probe_encrypted_provider,
    evasion_outcome_of,
)
from repro.cpe.firmware import dnat_interceptor, honest_router, xb6_profile
from repro.interceptors.policy import InterceptMode, intercept_all
from repro.resolvers.public import Provider

from tests.conftest import make_spec

TRANSPORTS = ("dot", "doh", "doq")


@pytest.fixture
def org():
    return organization_by_name("Comcast")


def client_for(org, probe_id, **spec_kw):
    sc = build_scenario(make_spec(org, probe_id=probe_id, **spec_kw))
    return MeasurementClient(sc.network, sc.host)


def dot_policy(**kw):
    return replace(intercept_all(**kw), intercept_dot=True)


class TestCleanPath:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("profile", list(EncryptedProfile))
    def test_standard_everywhere(self, org, transport, profile):
        client = client_for(org, 1100)
        report = probe_encrypted_all(
            client, transport=transport, profiles=(profile,), rng=random.Random(1)
        )
        for provider in Provider:
            assert (
                report.status_of(provider, profile)
                is EncryptedStatus.NOT_INTERCEPTED
            )
        assert not report.any_intercepted()

    def test_bad_transport_rejected(self, org):
        client = client_for(org, 1099)
        with pytest.raises(ValueError):
            probe_encrypted_provider(client, Provider.GOOGLE, transport="udp53")


class TestDotCapableInterceptor:
    def test_opportunistic_profile_intercepted(self, org):
        client = client_for(org, 1101, middlebox_policies=[dot_policy()])
        verdict = probe_encrypted_provider(
            client,
            Provider.GOOGLE,
            profile=EncryptedProfile.OPPORTUNISTIC,
            rng=random.Random(2),
        )
        assert verdict.status is EncryptedStatus.INTERCEPTED
        assert evasion_outcome_of(verdict) is EvasionOutcome.DOWNGRADED

    def test_strict_profile_defeats_hijack(self, org):
        """The §6 point: strict certificate validation turns interception
        into a visible failure instead of a silent hijack."""
        client = client_for(org, 1102, middlebox_policies=[dot_policy()])
        verdict = probe_encrypted_provider(
            client,
            Provider.GOOGLE,
            profile=EncryptedProfile.STRICT,
            rng=random.Random(3),
        )
        assert verdict.status is EncryptedStatus.HIJACK_DEFEATED
        assert verdict.exchange.status is ExchangeStatus.IDENTITY_REJECTED
        assert verdict.exchange.response is None

    def test_observed_identity_is_not_target(self, org):
        client = client_for(org, 1103, middlebox_policies=[dot_policy()])
        verdict = probe_encrypted_provider(
            client,
            Provider.CLOUDFLARE,
            profile=EncryptedProfile.OPPORTUNISTIC,
            rng=random.Random(4),
        )
        assert verdict.exchange.observed_identity != "one.one.one.one"

    def test_block_mode_dot(self, org):
        policy = replace(
            intercept_all(mode=InterceptMode.BLOCK), intercept_dot=True
        )
        client = client_for(org, 1104, middlebox_policies=[policy])
        strict = probe_encrypted_provider(
            client,
            Provider.QUAD9,
            profile=EncryptedProfile.STRICT,
            rng=random.Random(5),
        )
        assert strict.status is EncryptedStatus.HIJACK_DEFEATED
        opportunistic = probe_encrypted_provider(
            client,
            Provider.QUAD9,
            profile=EncryptedProfile.OPPORTUNISTIC,
            rng=random.Random(6),
        )
        assert opportunistic.status is EncryptedStatus.INTERCEPTED


class TestUdpOnlyInterceptors:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_udp_middlebox_cannot_touch_encrypted(self, org, transport):
        """A port-53-only middlebox is blind to ports 853 and 443."""
        client = client_for(org, 1105, middlebox_policies=[intercept_all()])
        report = probe_encrypted_all(
            client, transport=transport, rng=random.Random(7)
        )
        assert not report.any_intercepted()
        assert not report.any_hijack_defeated()

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_honest_cpe_cannot_touch_encrypted(self, org, transport):
        client = client_for(org, 1106, firmware=honest_router())
        report = probe_encrypted_all(
            client, transport=transport, rng=random.Random(8)
        )
        for provider in Provider:
            for profile in EncryptedProfile:
                assert (
                    report.status_of(provider, profile)
                    is EncryptedStatus.NOT_INTERCEPTED
                )


class TestCpeEncryptedPostures:
    @pytest.mark.parametrize("transport", ("dot", "doq"))
    def test_dnat_interceptor_firewalls_port_853(self, org, transport):
        """The DNAT hijacker drops port-853 sessions outright: both
        profiles see a dead socket, never a forged answer."""
        client = client_for(org, 1107, firmware=dnat_interceptor())
        report = probe_encrypted_all(
            client, transport=transport, rng=random.Random(9)
        )
        for provider in Provider:
            for profile in EncryptedProfile:
                verdict = report.verdicts[(provider, profile)]
                assert verdict.status is EncryptedStatus.NO_RESPONSE
                assert evasion_outcome_of(verdict) is EvasionOutcome.BLOCKED

    def test_dnat_interceptor_cannot_touch_doh(self, org):
        """DoH shares port 443 with all HTTPS, so the port-based firewall
        lets it through — the asymmetry that makes DoH the strongest
        evasion transport against this firmware."""
        client = client_for(org, 1108, firmware=dnat_interceptor())
        report = probe_encrypted_all(
            client, transport="doh", rng=random.Random(10)
        )
        for provider in Provider:
            for profile in EncryptedProfile:
                assert (
                    report.status_of(provider, profile)
                    is EncryptedStatus.NOT_INTERCEPTED
                )

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_buggy_xb6_downgrades_every_transport(self, org, transport):
        """The buggy XB6 terminates the session on its own certificate
        and answers over plaintext: opportunistic clients are silently
        intercepted, strict clients see the foreign identity."""
        client = client_for(org, 1109, firmware=xb6_profile(buggy=True))
        opportunistic = probe_encrypted_provider(
            client,
            Provider.GOOGLE,
            transport=transport,
            profile=EncryptedProfile.OPPORTUNISTIC,
            rng=random.Random(11),
        )
        assert opportunistic.status is EncryptedStatus.INTERCEPTED
        assert evasion_outcome_of(opportunistic) is EvasionOutcome.DOWNGRADED
        strict = probe_encrypted_provider(
            client,
            Provider.GOOGLE,
            transport=transport,
            profile=EncryptedProfile.STRICT,
            rng=random.Random(12),
        )
        assert strict.status is EncryptedStatus.HIJACK_DEFEATED
        assert strict.exchange.status is ExchangeStatus.IDENTITY_REJECTED

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_optin_xb6_cannot_touch_encrypted(self, org, transport):
        """With XDNS left opt-in (not buggy), the XB6 passes encrypted
        transports untouched — the deployment advice the paper's
        conclusion gestures at."""
        client = client_for(org, 1110, firmware=xb6_profile(buggy=False))
        report = probe_encrypted_all(
            client, transport=transport, rng=random.Random(13)
        )
        for provider in Provider:
            for profile in EncryptedProfile:
                assert (
                    report.status_of(provider, profile)
                    is EncryptedStatus.NOT_INTERCEPTED
                )


class TestFraming:
    def test_roundtrip(self):
        from repro.net.dot import unwrap_dot, wrap_dot

        frame = unwrap_dot(wrap_dot(b"payload", "dns.google"))
        assert frame.server_identity == "dns.google"
        assert frame.dns_payload == b"payload"

    def test_garbage_is_none(self):
        from repro.net.dot import unwrap_dot

        assert unwrap_dot(b"") is None
        assert unwrap_dot(b"NOPE....") is None
        assert unwrap_dot(b"DoT1\xff") is None  # truncated identity

    def test_plain_dns_not_dot(self):
        from repro.dnswire import QType, make_query
        from repro.net.dot import is_dot_payload

        assert not is_dot_payload(make_query("x.", QType.A, msg_id=1).encode())

    def test_identity_length_limit(self):
        from repro.net.dot import wrap_dot

        with pytest.raises(ValueError):
            wrap_dot(b"", "x" * 300)
