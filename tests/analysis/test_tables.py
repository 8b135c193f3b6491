"""Table 4 / Table 5 construction from study records."""

import pytest

from repro.analysis.tables import build_example_tables, build_table4, build_table5
from repro.atlas.population import generate_population
from repro.core.study import ProbeRecord, StudyResult, run_pilot_study
from repro.core.detector import InterceptionStatus
from repro.resolvers.public import Provider

INT = InterceptionStatus.INTERCEPTED.value
OK = InterceptionStatus.NOT_INTERCEPTED.value


def record(probe_id, statuses, verdict="within-isp", version=None):
    return ProbeRecord(
        probe_id=probe_id,
        organization="Org",
        asn=1,
        country="US",
        online=True,
        provider_status=tuple(statuses),
        verdict=verdict,
        cpe_version_string=version,
    )


def full_status(status, family=4):
    return [(p.value, family, status) for p in Provider]


class TestTable4:
    def test_counts_per_provider(self):
        study = StudyResult(
            records=[
                record(1, full_status(INT)),
                record(2, full_status(OK)),
                record(3, [(Provider.GOOGLE.value, 4, INT)]),
            ]
        )
        table = build_table4(study)
        google_row = next(r for r in table.rows if r.provider == "Google DNS")
        assert google_row.intercepted_v4 == 2
        assert google_row.total_v4 == 3
        cf_row = next(r for r in table.rows if r.provider == "Cloudflare DNS")
        assert cf_row.intercepted_v4 == 1
        assert cf_row.total_v4 == 2  # probe 3 never measured Cloudflare

    def test_all_intercepted_row(self):
        study = StudyResult(
            records=[record(1, full_status(INT)), record(2, full_status(OK))]
        )
        table = build_table4(study)
        assert table.all_intercepted.intercepted_v4 == 1
        assert table.all_intercepted.total_v4 == 2

    def test_v6_counted_separately(self):
        study = StudyResult(
            records=[record(1, full_status(INT, family=4) + full_status(OK, family=6))]
        )
        table = build_table4(study)
        row = table.rows[0]
        assert row.intercepted_v4 == 1 and row.intercepted_v6 == 0
        assert row.total_v6 == 1

    def test_render_contains_all_rows(self):
        study = StudyResult(records=[record(1, full_status(INT))])
        text = build_table4(study).render()
        for provider in Provider:
            assert provider.value in text
        assert "All Intercepted" in text


class TestTable5:
    def test_groups_and_orders(self):
        study = StudyResult(
            records=[
                record(1, full_status(INT), verdict="cpe", version="dnsmasq-2.80"),
                record(2, full_status(INT), verdict="cpe", version="dnsmasq-2.85"),
                record(3, full_status(INT), verdict="cpe", version="unbound 1.9.0"),
            ]
        )
        table = build_table5(study)
        assert table.counts[0] == ("dnsmasq-*", 2)
        assert table.total == 3

    def test_render(self):
        study = StudyResult(
            records=[record(1, full_status(INT), verdict="cpe", version="huuh?")]
        )
        assert "huuh?" in build_table5(study).render()


class TestExampleTables:
    def test_render_shapes(self):
        rows = {
            1053: dict(
                cloudflare_loc="SFO",
                google_loc="172.253.211.15",
                cloudflare_vb="-",
                google_vb="-",
                cpe_vb="-",
            ),
            21823: dict(
                cloudflare_loc="routing.v2.pw",
                google_loc="185.194.112.32",
                cloudflare_vb="unbound 1.9.0",
                google_vb="unbound 1.9.0",
                cpe_vb="unbound 1.9.0",
            ),
        }
        t2, t3 = build_example_tables(rows)
        assert "Table 2" in t2 and "SFO" in t2
        assert "Table 3" in t3 and "CPE Public IP" in t3


class TestOnRealStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_pilot_study(generate_population(size=250, seed=21))

    def test_totals_bounded_by_fleet(self, study):
        table = build_table4(study)
        for row in table.rows:
            assert row.intercepted_v4 <= row.total_v4 <= study.fleet_size
            assert row.intercepted_v6 <= row.total_v6 <= row.total_v4

    def test_all_intercepted_not_more_than_min_provider(self, study):
        table = build_table4(study)
        minimum = min(r.intercepted_v4 for r in table.rows)
        assert table.all_intercepted.intercepted_v4 <= minimum

    def test_table5_total_matches_cpe_verdicts(self, study):
        from repro.core.classifier import LocatorVerdict

        table = build_table5(study)
        cpe_count = sum(r.verdict == LocatorVerdict.CPE.value for r in study.records)
        assert table.total == cpe_count
