"""The generic measurement-campaign layer."""

import pytest

from repro.atlas.campaign import Campaign, MeasurementDefinition
from repro.atlas.geo import organization_by_name
from repro.atlas.population import generate_population
from repro.atlas.probe import ProbeSpec
from repro.atlas.scenario import build_scenario
from repro.cpe.firmware import dnat_interceptor
from repro.dnswire import QClass, QType

from tests.conftest import make_spec

LOCATION_MSM = MeasurementDefinition(
    msm_id=1001,
    target="1.1.1.1",
    qname="id.server.",
    qtype=QType.TXT,
    qclass=QClass.CH,
    description="Cloudflare location query",
)
A_MSM = MeasurementDefinition(
    msm_id=1002, target="8.8.8.8", qname="www.example.com."
)
V6_MSM = MeasurementDefinition(
    msm_id=1003, target="2606:4700:4700::1111", qname="www.example.com."
)


@pytest.fixture
def org():
    return organization_by_name("Orange")


class TestDefinitions:
    def test_family_derived_from_target(self):
        assert LOCATION_MSM.family == 4
        assert V6_MSM.family == 6

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Campaign([LOCATION_MSM, LOCATION_MSM])


class TestSingleScenario:
    def test_rows_per_definition(self, org):
        scenario = build_scenario(make_spec(org, probe_id=2300))
        rows = Campaign([LOCATION_MSM, A_MSM]).run_on_scenario(scenario)
        assert [r.msm_id for r in rows] == [1001, 1002]
        assert all(r.probe_id == 2300 for r in rows)

    def test_answers_and_rcode(self, org):
        scenario = build_scenario(make_spec(org, probe_id=2301))
        rows = Campaign([A_MSM]).run_on_scenario(scenario)
        row = rows[0]
        assert row.succeeded
        assert row.rcode == "NOERROR"
        assert "93.184.216.34" in row.answers
        assert row.rt_ms and row.rt_ms > 0

    def test_family_unavailable_error(self, org):
        scenario = build_scenario(make_spec(org, probe_id=2302, has_ipv6=False))
        rows = Campaign([V6_MSM]).run_on_scenario(scenario)
        assert rows[0].error == "address-family-unavailable"
        assert not rows[0].succeeded

    def test_timeout_error(self, org):
        dead = MeasurementDefinition(msm_id=9, target="203.0.113.99", qname="x.example.")
        scenario = build_scenario(make_spec(org, probe_id=2303))
        rows = Campaign([dead]).run_on_scenario(scenario)
        assert rows[0].error == "timeout"

    def test_interceptor_visible_in_rows(self, org):
        scenario = build_scenario(
            make_spec(org, probe_id=2304, firmware=dnat_interceptor())
        )
        rows = Campaign([LOCATION_MSM]).run_on_scenario(scenario)
        # dnsmasq answers NXDOMAIN for id.server: visible in the raw row.
        assert rows[0].rcode == "NXDOMAIN"


class TestFleetRun:
    def test_offline_probes_skipped(self, org):
        specs = [
            make_spec(org, probe_id=2305),
            ProbeSpec(probe_id=2306, organization=org, online=False),
        ]
        rows = Campaign([A_MSM]).run(specs)
        assert {r.probe_id for r in rows} == {2305}

    def test_progress_callback(self):
        specs = generate_population(size=5, seed=23)
        seen = []
        Campaign([A_MSM]).run(specs, progress=seen.append)
        assert seen and seen[-1] == 5
