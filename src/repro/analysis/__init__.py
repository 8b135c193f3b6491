"""``repro.analysis`` — regenerating the paper's tables and figures.

Aggregation from :class:`~repro.core.study.StudyResult` records into the
exact artifacts of the paper's evaluation section, plus plain-text
rendering.
"""

from .examples import measure_example_probes
from .figures import (
    build_figure3,
    build_figure4_countries,
    build_figure4_organizations,
    build_location_summary,
)
from .formatting import render_bar_chart, render_table
from .grouping import count_version_families, top_groups
from .accuracy import score_study
from .replication import build_replication_report
from .stability import build_stability_report
from .agreement import build_agreement_table
from .evasion import build_evasion_table
from .export import load_study, save_study, study_to_json
from .tables import build_example_tables, build_table4, build_table5

__all__ = [
    "measure_example_probes",
    "build_figure3",
    "build_figure4_countries",
    "build_figure4_organizations",
    "build_location_summary",
    "render_bar_chart",
    "render_table",
    "score_study",
    "build_replication_report",
    "build_stability_report",
    "build_agreement_table",
    "build_evasion_table",
    "load_study",
    "save_study",
    "study_to_json",
    "count_version_families",
    "top_groups",
    "build_example_tables",
    "build_table4",
    "build_table5",
]
