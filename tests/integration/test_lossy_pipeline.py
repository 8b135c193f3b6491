"""The full pipeline under packet loss, with stub retransmission."""

import random

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import MeasurementClient
from repro.atlas.retry import FixedIntervalRetry
from repro.atlas.scenario import build_scenario
from repro.core.classifier import InterceptionLocator, LocatorVerdict
from repro.cpe.firmware import xb6_profile
from repro.interceptors.policy import intercept_all
from repro.net.impairment import LinkProfile

from tests.conftest import make_spec

def classify_lossy(spec, loss, retries, loss_seed=1):
    scenario = build_scenario(spec)
    scenario.network.loss_rng.seed(loss_seed)
    scenario.network.set_link_profile("cpe", "access", LinkProfile(loss=loss))
    client = MeasurementClient(
        scenario.network,
        scenario.host,
        retry_policy=FixedIntervalRetry(retries=retries, interval_ms=400.0),
    )
    locator = InterceptionLocator(
        client,
        cpe_public_v4=scenario.cpe_public_v4,
        families=(4,),
        rng=random.Random(spec.probe_id),
        run_transparency=False,
    )
    return locator.classify()


class TestPipelineUnderLoss:
    def test_xb6_still_convicted_with_retries(self):
        """The CPE check never crosses the lossy access link (both the
        query to the WAN IP and the hijacked resolver queries terminate
        at the CPE), so even heavy access-side loss cannot unseat a CPE
        verdict once Step 1 sees any non-standard answer."""
        org = organization_by_name("Comcast")
        spec = make_spec(org, probe_id=1600, firmware=xb6_profile())
        result = classify_lossy(spec, loss=0.3, retries=4)
        assert result.verdict is LocatorVerdict.CPE

    def test_isp_interceptor_with_retries(self):
        org = organization_by_name("Comcast")
        spec = make_spec(
            org, probe_id=1601, middlebox_policies=[intercept_all()]
        )
        result = classify_lossy(spec, loss=0.25, retries=5)
        assert result.verdict is LocatorVerdict.WITHIN_ISP

    def test_clean_path_never_flagged_under_loss(self):
        """Loss produces timeouts; timeouts are never interception. Even
        a badly lossy clean path must classify NOT_INTERCEPTED or
        NO_DATA — never a false interception verdict."""
        org = organization_by_name("Comcast")
        for seed in range(3):
            spec = make_spec(org, probe_id=1602 + seed)
            result = classify_lossy(spec, loss=0.5, retries=0, loss_seed=seed)
            assert result.verdict in (
                LocatorVerdict.NOT_INTERCEPTED,
                LocatorVerdict.NO_DATA,
            )

    def test_total_loss_is_no_data(self):
        org = organization_by_name("Comcast")
        spec = make_spec(org, probe_id=1610)
        result = classify_lossy(spec, loss=0.999, retries=1)
        assert result.verdict is LocatorVerdict.NO_DATA
