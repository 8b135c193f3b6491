"""The detector-agreement study: content heuristics vs certificates.

The three-step locator and the certificate cross-validator look at the
same interception phenomena through different evidence — answer
*content* versus presented *identity* — so running both over one fleet
yields a confusion matrix: where they agree, where the certificate
detector flags probes the heuristic scores clean (encrypted-only
middleboxes relaying standard content under a foreign certificate,
NXDOMAIN monetisation invisible to resolvable-name probes), and where
it must abstain (port-853 firewalls, SNI blocklists: the fetch itself
dies, and the detector degrades to inconclusive rather than guess).

Rows are the heuristic :class:`~repro.core.classifier.LocatorVerdict`,
columns the :class:`~repro.core.cert_validate.CertVerdict`; every cell
is additionally available per ground-truth scenario class, and each
*disagreeing* probe is attributed to the cert-side cause that explains
the split (``content-only`` when the cert detector saw nothing wrong).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.cert_validate import CertVerdict
from repro.core.classifier import LocatorVerdict
from repro.core.study import ProbeRecord, StudyResult

from .formatting import render_table

#: Row axis (heuristic verdict values), in presentation order.
HEURISTIC_AXIS: tuple[str, ...] = tuple(v.value for v in LocatorVerdict)
#: Column axis (cert verdict values), in presentation order.
CERT_AXIS: tuple[str, ...] = tuple(v.value for v in CertVerdict)

#: Heuristic verdicts that mean "an interceptor was found".
_HEURISTIC_FLAGGED = frozenset(
    v.value
    for v in (LocatorVerdict.CPE, LocatorVerdict.WITHIN_ISP, LocatorVerdict.UNKNOWN)
)

#: Disagreement attribution when the cert side reported no cause.
CONTENT_ONLY = "content-only"


@dataclass(frozen=True)
class AgreementTable:
    """Confusion matrix of heuristic verdict x cert verdict.

    ``matrix`` maps ``(heuristic value, cert value)`` to a probe count;
    ``by_class`` holds the same matrix restricted to each ground-truth
    ``true_location`` class; ``disagreements`` counts the probes the two
    detectors flag differently, keyed by the cert-side cause.
    """

    total: int
    matrix: dict[tuple[str, str], int]
    by_class: dict[str, dict[tuple[str, str], int]]
    disagreements: dict[str, int]

    def count(self, heuristic: str, cert: str) -> int:
        return self.matrix.get((heuristic, cert), 0)

    @property
    def agreeing(self) -> int:
        return self.total - sum(self.disagreements.values())

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view; key order is fixed by the two axes, so the
        serialized bytes are identical for identical record lists."""

        def nested(matrix: dict[tuple[str, str], int]) -> dict[str, dict[str, int]]:
            out: dict[str, dict[str, int]] = {}
            for heuristic in HEURISTIC_AXIS:
                row = {
                    cert: matrix[heuristic, cert]
                    for cert in CERT_AXIS
                    if (heuristic, cert) in matrix
                }
                if row:
                    out[heuristic] = row
            return out

        return {
            "total": self.total,
            "agreeing": self.agreeing,
            "matrix": nested(self.matrix),
            "by_class": {
                location: nested(matrix)
                for location, matrix in sorted(self.by_class.items())
            },
            "disagreements": dict(sorted(self.disagreements.items())),
        }

    def render(self) -> str:
        rows = []
        for heuristic in HEURISTIC_AXIS:
            counts = [self.count(heuristic, cert) for cert in CERT_AXIS]
            if not any(counts):
                continue
            rows.append([heuristic, *counts, sum(counts)])
        table = render_table(
            ["heuristic \\ cert", *CERT_AXIS, "total"],
            rows,
            title=f"Detector agreement ({self.total} probes, "
            f"{self.agreeing} agreeing)",
        )
        if self.disagreements:
            breakdown = render_table(
                ["disagreement cause", "probes"],
                [
                    [cause, count]
                    for cause, count in sorted(self.disagreements.items())
                ],
                title="Disagreements by cert-side cause",
            )
            table = table + "\n" + breakdown
        return table


def _heuristic_flagged(record: ProbeRecord) -> bool:
    return record.verdict in _HEURISTIC_FLAGGED


def _cert_flagged(cert_verdict: str) -> bool:
    return cert_verdict == CertVerdict.INTERCEPTED.value


def _cause(record: ProbeRecord) -> str:
    return record.cert_cause or CONTENT_ONLY


def build_agreement_table(study: StudyResult) -> AgreementTable:
    """Cross-tabulate both detectors' verdicts over one study.

    Only records measured with ``detector="both"`` enter the table —
    each row must carry the two verdicts of the *same* probe under the
    same scenario. Raises :class:`ValueError` when the study never ran
    both detectors: an all-zero matrix would read as "perfect
    agreement" rather than "nothing was compared".
    """
    records = [r for r in study.records if r.detector == "both" and r.online]
    if not records:
        raise ValueError(
            "study has no detector-agreement data; run it with "
            'StudyConfig(detector="both")'
        )
    matrix: dict[tuple[str, str], int] = {}
    by_class: dict[str, dict[tuple[str, str], int]] = {}
    disagreements: dict[str, int] = {}
    for record in records:
        cert_verdict = record.cert_verdict or CertVerdict.NO_DATA.value
        key = (record.verdict, cert_verdict)
        matrix[key] = matrix.get(key, 0) + 1
        class_matrix = by_class.setdefault(record.true_location, {})
        class_matrix[key] = class_matrix.get(key, 0) + 1
        if _heuristic_flagged(record) != _cert_flagged(cert_verdict):
            cause = _cause(record)
            disagreements[cause] = disagreements.get(cause, 0) + 1
    return AgreementTable(
        total=len(records),
        matrix=matrix,
        by_class=by_class,
        disagreements=disagreements,
    )
