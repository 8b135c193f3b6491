"""Property-based tests: classifier invariants over random scenarios.

Hypothesis generates household configurations (CPE firmware, ISP
policies, external interceptors, families) and the tests assert the
soundness properties the methodology claims:

- no false interception verdicts on clean paths;
- ground-truth CPE interceptors are always classified CPE;
- WITHIN_ISP is only ever concluded when an interceptor actually sits
  inside the client's AS;
- timeouts never produce interception verdicts.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import diagnose_household
from repro.atlas.geo import ORGANIZATIONS
from repro.core.classifier import LocatorVerdict
from repro.cpe.firmware import (
    dnat_interceptor,
    honest_forwarder,
    honest_router,
    open_wan_forwarder,
)
from repro.dnswire import RCode
from repro.interceptors.policy import (
    InterceptMode,
    allow_only,
    intercept_all,
    intercept_only,
)
from repro.resolvers.public import PROVIDER_SPECS, Provider
from repro.resolvers.software import dnsmasq, pi_hole, unbound

from tests.conftest import make_spec

organizations = st.sampled_from(ORGANIZATIONS)
probe_ids = st.integers(min_value=1, max_value=50000)

cpe_software = st.sampled_from(
    [dnsmasq("2.78"), dnsmasq("2.85"), pi_hole("2.81"), unbound("1.9.0")]
)

honest_firmware = st.one_of(
    st.just(honest_router()),
    cpe_software.map(lambda sw: honest_forwarder(software=sw)),
    cpe_software.map(lambda sw: open_wan_forwarder(software=sw)),
)

interceptor_firmware = cpe_software.map(lambda sw: dnat_interceptor(software=sw))


def provider_targets(provider):
    return list(PROVIDER_SPECS[provider].v4_addresses)


redirect_policies = st.one_of(
    st.just(intercept_all()),
    st.sampled_from(list(Provider)).map(
        lambda p: intercept_only(provider_targets(p))
    ),
    st.sampled_from(list(Provider)).map(lambda p: allow_only(provider_targets(p))),
)

block_policies = st.sampled_from(
    [RCode.REFUSED, RCode.NOTIMP, RCode.SERVFAIL]
).map(lambda rc: intercept_all(mode=InterceptMode.BLOCK, block_rcode=rc))

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_settings
@given(org=organizations, probe_id=probe_ids, firmware=honest_firmware,
       has_ipv6=st.booleans())
def test_no_false_positives_on_clean_paths(org, probe_id, firmware, has_ipv6):
    """Honest CPE, honest ISP, honest transit: never 'intercepted'."""
    spec = make_spec(org, probe_id=probe_id, firmware=firmware, has_ipv6=has_ipv6)
    result = diagnose_household(spec, run_transparency=False)
    assert result.verdict is LocatorVerdict.NOT_INTERCEPTED


@_settings
@given(org=organizations, probe_id=probe_ids, firmware=interceptor_firmware)
def test_cpe_interceptors_always_found(org, probe_id, firmware):
    spec = make_spec(org, probe_id=probe_id, firmware=firmware)
    result = diagnose_household(spec, run_transparency=False)
    assert result.verdict is LocatorVerdict.CPE
    assert result.cpe_version_string == firmware.software.label


@_settings
@given(org=organizations, probe_id=probe_ids, policy=redirect_policies,
       eats_bogons=st.booleans())
def test_isp_redirect_never_blamed_on_cpe(org, probe_id, policy, eats_bogons):
    from dataclasses import replace

    policy = replace(policy, intercept_bogons=eats_bogons)
    spec = make_spec(org, probe_id=probe_id, middlebox_policies=[policy])
    result = diagnose_household(spec, run_transparency=False)
    assert result.verdict in (LocatorVerdict.WITHIN_ISP, LocatorVerdict.UNKNOWN)
    if eats_bogons:
        assert result.verdict is LocatorVerdict.WITHIN_ISP


@_settings
@given(org=organizations, probe_id=probe_ids, policy=block_policies)
def test_blocking_isp_detected_and_localised(org, probe_id, policy):
    spec = make_spec(org, probe_id=probe_id, middlebox_policies=[policy])
    result = diagnose_household(spec, run_transparency=False)
    assert result.verdict is LocatorVerdict.WITHIN_ISP


@_settings
@given(org=organizations, probe_id=probe_ids, policy=redirect_policies)
def test_external_interceptors_never_within_isp(org, probe_id, policy):
    """Soundness of Step 3: a beyond-AS interceptor can never be
    (wrongly) localised inside the ISP."""
    spec = make_spec(org, probe_id=probe_id, external_policies=[policy])
    result = diagnose_household(spec, run_transparency=False)
    assert result.verdict in (LocatorVerdict.UNKNOWN, LocatorVerdict.NOT_INTERCEPTED)
    # allow-one/intercept-only policies always hijack >=1 provider here,
    # so detection must have fired:
    assert result.verdict is LocatorVerdict.UNKNOWN


@_settings
@given(org=organizations, probe_id=probe_ids)
def test_drop_interceptor_never_convicts(org, probe_id):
    """Timeout conservatism end-to-end."""
    spec = make_spec(
        org,
        probe_id=probe_id,
        middlebox_policies=[intercept_all(mode=InterceptMode.DROP)],
    )
    result = diagnose_household(spec, run_transparency=False)
    assert result.verdict in (LocatorVerdict.NO_DATA, LocatorVerdict.NOT_INTERCEPTED)


@_settings
@given(org=organizations, probe_id=probe_ids, firmware=interceptor_firmware,
       policy=redirect_policies)
def test_cpe_shadows_isp(org, probe_id, firmware, policy):
    """With both a CPE interceptor and an ISP middlebox, the CPE hides
    the middlebox: queries never get past the CPE, and Step 2 stops the
    pipeline with the (correct) nearest-interceptor verdict."""
    spec = make_spec(
        org, probe_id=probe_id, firmware=firmware, middlebox_policies=[policy]
    )
    result = diagnose_household(spec, run_transparency=False)
    assert result.verdict is LocatorVerdict.CPE
