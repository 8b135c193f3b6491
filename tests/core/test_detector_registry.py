"""The detector registry: names, lookup, and dispatch to the detectors."""

import random

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import MeasurementClient
from repro.atlas.scenario import build_scenario
from repro.core.cert_validate import validate_certificates
from repro.core.classifier import InterceptionLocator
from repro.core.detector_registry import DETECTORS, get_detector
from repro.cpe.firmware import dnat_interceptor

from tests.conftest import make_spec


def fresh_client(probe):
    scenario = build_scenario(probe)
    return MeasurementClient(scenario.network, scenario.host)


class TestDetectorRegistry:
    def test_registry_names(self):
        assert set(DETECTORS) == {"heuristic", "cert"}
        for name in DETECTORS:
            assert get_detector(name).name == name

    def test_unknown_detector_rejected(self):
        with pytest.raises(ValueError, match="unknown detector"):
            get_detector("tarot")
        with pytest.raises(ValueError, match="unknown detector"):
            get_detector("encrypted")

    def test_registry_classify_matches_direct_calls(self):
        """Each entry returns what calling its detector directly returns
        on an identical scenario, tagged with the entry's name."""
        probe = make_spec(
            organization_by_name("BT"), probe_id=822, firmware=dnat_interceptor()
        )
        heuristic = get_detector("heuristic").classify(
            fresh_client(probe), probe, rng=random.Random(5)
        )
        direct = InterceptionLocator(
            fresh_client(probe), rng=random.Random(5)
        ).classify()
        assert heuristic.detector == "heuristic"
        assert heuristic.intercepted
        assert heuristic == direct

        cert = get_detector("cert").classify(
            fresh_client(probe), probe, rng=random.Random(5)
        )
        assert cert.detector == "cert"
        assert cert.cert == validate_certificates(
            fresh_client(probe), rng=random.Random(5)
        )
        assert cert.verdict is cert.cert.verdict
