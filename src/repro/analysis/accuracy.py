"""Classifier accuracy against simulation ground truth.

The real study had no ground truth; the simulation does. This module
scores the three-step pipeline's verdicts against the fleet's designed
interceptor placements — quantifying exactly the error modes the paper
could only describe qualitatively (§6): open-forwarder false positives
for CPE, bogon-blind interceptors degrading WITHIN_ISP to UNKNOWN, and
DROP-mode interceptors hiding behind timeout conservatism.

``UNKNOWN`` is scored as *correct* for beyond-AS interceptors (the
method claims only "potentially beyond the ISP" — which is true) and as
a *miss* (not an error) for in-ISP interceptors it could not pin down.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.atlas.probe import InterceptorLocation
from repro.core.classifier import LocatorVerdict
from repro.core.study import ProbeRecord, StudyResult

from .formatting import render_table

#: Ground-truth classes, in display order.
TRUTH_ORDER = (
    InterceptorLocation.NONE.value,
    InterceptorLocation.CPE.value,
    InterceptorLocation.ISP.value,
    InterceptorLocation.BEYOND.value,
)
#: Verdict classes, in display order. ``INCONCLUSIVE`` (graceful
#: degradation under impairment) is scored like ``NO_DATA``: a miss,
#: never an error — the classifier explicitly declined to guess.
VERDICT_ORDER = (
    LocatorVerdict.NOT_INTERCEPTED.value,
    LocatorVerdict.CPE.value,
    LocatorVerdict.WITHIN_ISP.value,
    LocatorVerdict.UNKNOWN.value,
    LocatorVerdict.INCONCLUSIVE.value,
    LocatorVerdict.NO_DATA.value,
)


@dataclass
class ConfusionMatrix:
    """truth x verdict counts over online probes."""

    counts: Counter = field(default_factory=Counter)

    def add(self, truth: str, verdict: str) -> None:
        self.counts[(truth, verdict)] += 1

    def count(self, truth: str, verdict: str) -> int:
        return self.counts.get((truth, verdict), 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def render(self) -> str:
        headers = ["truth \\ verdict"] + [v for v in VERDICT_ORDER]
        rows = []
        for truth in TRUTH_ORDER:
            rows.append(
                [truth] + [self.count(truth, verdict) for verdict in VERDICT_ORDER]
            )
        return render_table(headers, rows, title="Verdict confusion matrix.")


@dataclass(frozen=True)
class ClassMetrics:
    """Precision/recall for one verdict class."""

    label: str
    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 1.0

    @property
    def recall(self) -> float:
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 1.0


@dataclass
class AccuracyReport:
    matrix: ConfusionMatrix
    detection: ClassMetrics  # intercepted vs not, any location
    cpe: ClassMetrics
    within_isp: ClassMetrics

    def render(self) -> str:
        lines = [self.matrix.render(), ""]
        for metrics in (self.detection, self.cpe, self.within_isp):
            lines.append(
                f"{metrics.label:<22} precision={metrics.precision:.3f} "
                f"recall={metrics.recall:.3f} "
                f"(tp={metrics.true_positives} fp={metrics.false_positives} "
                f"fn={metrics.false_negatives})"
            )
        return "\n".join(lines)


def _online(records: Iterable[ProbeRecord]) -> list[ProbeRecord]:
    return [r for r in records if r.online]


def score_study(study: StudyResult) -> AccuracyReport:
    """Score every online probe's verdict against its ground truth."""
    records = _online(study.records)
    matrix = ConfusionMatrix()
    for record in records:
        matrix.add(record.true_location, record.verdict)

    # Detection: was interception (any location) correctly noticed?
    detect_tp = detect_fp = detect_fn = 0
    cpe_tp = cpe_fp = cpe_fn = 0
    isp_tp = isp_fp = isp_fn = 0
    for record in records:
        truly_intercepted = record.true_location != InterceptorLocation.NONE.value
        flagged = record.verdict in (
            LocatorVerdict.CPE.value,
            LocatorVerdict.WITHIN_ISP.value,
            LocatorVerdict.UNKNOWN.value,
        )
        if flagged and truly_intercepted:
            detect_tp += 1
        elif flagged and not truly_intercepted:
            detect_fp += 1
        elif not flagged and truly_intercepted:
            detect_fn += 1

        truth_cpe = record.true_location == InterceptorLocation.CPE.value
        verdict_cpe = record.verdict == LocatorVerdict.CPE.value
        if verdict_cpe and truth_cpe:
            cpe_tp += 1
        elif verdict_cpe and not truth_cpe:
            cpe_fp += 1
        elif not verdict_cpe and truth_cpe:
            cpe_fn += 1

        truth_isp = record.true_location == InterceptorLocation.ISP.value
        verdict_isp = record.verdict == LocatorVerdict.WITHIN_ISP.value
        if verdict_isp and truth_isp:
            isp_tp += 1
        elif verdict_isp and not truth_isp:
            isp_fp += 1
        elif not verdict_isp and truth_isp:
            isp_fn += 1

    return AccuracyReport(
        matrix=matrix,
        detection=ClassMetrics("interception detected", detect_tp, detect_fp, detect_fn),
        cpe=ClassMetrics("CPE attribution", cpe_tp, cpe_fp, cpe_fn),
        within_isp=ClassMetrics("WITHIN_ISP attribution", isp_tp, isp_fp, isp_fn),
    )
