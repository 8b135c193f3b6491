"""Regenerating the paper's tables from a study result.

- **Table 1** — the location-query catalog (static, verified live in the
  bench);
- **Table 2** — example location-query responses for the three worked
  probes;
- **Table 3** — example version.bind responses for the same probes;
- **Table 4** — intercepted probes per public resolver (IPv4 and IPv6);
- **Table 5** — version.bind strings of CPE-attributed interceptors.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.atlas.population import PROVIDERS
from repro.core.study import StudyResult

from .formatting import render_table
from .grouping import count_version_families


@dataclass(frozen=True)
class Table4Row:
    provider: str
    intercepted_v4: int
    total_v4: int
    intercepted_v6: int
    total_v6: int


@dataclass
class Table4:
    rows: list[Table4Row]
    all_intercepted: Table4Row

    def render(self) -> str:
        headers = (
            "Resolver",
            "IPv4 Intercepted",
            "IPv4 Total",
            "IPv6 Intercepted",
            "IPv6 Total",
        )
        data = [
            (r.provider, r.intercepted_v4, r.total_v4, r.intercepted_v6, r.total_v6)
            for r in self.rows + [self.all_intercepted]
        ]
        return render_table(
            headers, data, title="Table 4: Number of intercepted probes per public resolver."
        )


def build_table4(study: StudyResult) -> Table4:
    """Per-provider interception counts among responding probes."""
    rows = []
    for provider in PROVIDERS:
        intercepted_v4 = total_v4 = intercepted_v6 = total_v6 = 0
        for record in study.records:
            if record.responded(provider, 4):
                total_v4 += 1
                if record.intercepted_for(provider, 4):
                    intercepted_v4 += 1
            if record.responded(provider, 6):
                total_v6 += 1
                if record.intercepted_for(provider, 6):
                    intercepted_v6 += 1
        rows.append(
            Table4Row(provider.value, intercepted_v4, total_v4, intercepted_v6, total_v6)
        )

    all_v4 = sum(1 for r in study.records if r.responded_all(4) and r.intercepted_all(4))
    tot_v4 = sum(1 for r in study.records if r.responded_all(4))
    all_v6 = sum(
        1
        for r in study.records
        if r.responded_all(6) and r.intercepted_all(6)
    )
    tot_v6 = sum(1 for r in study.records if r.responded_all(6))
    return Table4(
        rows=rows,
        all_intercepted=Table4Row("All Intercepted", all_v4, tot_v4, all_v6, tot_v6),
    )


@dataclass
class Table5:
    counts: list[tuple[str, int]]

    @property
    def total(self) -> int:
        return sum(count for _family, count in self.counts)

    def render(self) -> str:
        return render_table(
            ("version.bind Response", "# Probes"),
            self.counts,
            title="Table 5: Strings sent in response to version.bind "
            "(CPE-attributed interceptors).",
        )


def build_table5(study: StudyResult) -> Table5:
    counter = count_version_families(study.records)
    ordered = sorted(counter.items(), key=lambda item: (-item[1], item[0]))
    return Table5(counts=ordered)


# -- Tables 2 and 3: the worked example -------------------------------------


def build_example_tables(example_rows: "dict[int, dict[str, str]]") -> tuple[str, str]:
    """Render Tables 2-3 from the per-probe observation dictionaries.

    ``example_rows`` maps probe id to a dict with keys ``cloudflare_loc``,
    ``google_loc``, ``cloudflare_vb``, ``google_vb``, ``cpe_vb`` (as
    produced by :func:`repro.analysis.examples.measure_example_probes`).
    """
    table2 = render_table(
        ("ProbeID", "Cloudflare DNS", "Google DNS"),
        [
            (pid, row["cloudflare_loc"], row["google_loc"])
            for pid, row in sorted(example_rows.items())
        ],
        title="Table 2: Example responses to IPv4 location queries.",
    )
    table3 = render_table(
        ("ProbeID", "Cloudflare DNS", "Google DNS", "CPE Public IP"),
        [
            (pid, row["cloudflare_vb"], row["google_vb"], row["cpe_vb"])
            for pid, row in sorted(example_rows.items())
        ],
        title="Table 3: Example responses to IPv4 version.bind queries.",
    )
    return table2, table3
