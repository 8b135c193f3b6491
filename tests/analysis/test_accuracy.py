"""Scoring the classifier against simulation ground truth."""

import pytest

from repro.analysis.accuracy import (
    ClassMetrics,
    ConfusionMatrix,
    score_study,
)
from repro.atlas.population import generate_population
from repro.core.study import ProbeRecord, StudyResult, run_pilot_study


def record(truth, verdict, probe_id=1, online=True):
    return ProbeRecord(
        probe_id=probe_id,
        organization="Org",
        asn=1,
        country="US",
        online=online,
        verdict=verdict,
        true_location=truth,
    )


class TestConfusionMatrix:
    def test_counts(self):
        matrix = ConfusionMatrix()
        matrix.add("cpe", "cpe")
        matrix.add("cpe", "cpe")
        matrix.add("isp", "unknown")
        assert matrix.count("cpe", "cpe") == 2
        assert matrix.total == 3

    def test_render(self):
        matrix = ConfusionMatrix()
        matrix.add("none", "not-intercepted")
        text = matrix.render()
        assert "confusion" in text.lower()
        assert "not-intercepted" in text


class TestClassMetrics:
    def test_precision_recall(self):
        metrics = ClassMetrics("x", true_positives=8, false_positives=2,
                               false_negatives=2)
        assert metrics.precision == pytest.approx(0.8)
        assert metrics.recall == pytest.approx(0.8)

    def test_degenerate_cases(self):
        empty = ClassMetrics("x", 0, 0, 0)
        assert empty.precision == 1.0 and empty.recall == 1.0


class TestScoreStudy:
    def test_perfect_study(self):
        study = StudyResult(
            records=[
                record("none", "not-intercepted", 1),
                record("cpe", "cpe", 2),
                record("isp", "within-isp", 3),
                record("beyond", "unknown", 4),
            ]
        )
        report = score_study(study)
        assert report.detection.precision == 1.0
        assert report.detection.recall == 1.0
        assert report.cpe.precision == 1.0
        assert report.within_isp.recall == 1.0

    def test_open_forwarder_false_positive_counted(self):
        study = StudyResult(records=[record("isp", "cpe", 1)])
        report = score_study(study)
        assert report.cpe.false_positives == 1
        assert report.within_isp.false_negatives == 1
        # Detection itself is still correct.
        assert report.detection.true_positives == 1

    def test_offline_probes_excluded(self):
        study = StudyResult(
            records=[record("cpe", "no-data", 1, online=False)]
        )
        report = score_study(study)
        assert report.matrix.total == 0

    def test_drop_interceptor_is_detection_miss(self):
        study = StudyResult(records=[record("isp", "no-data", 1)])
        report = score_study(study)
        assert report.detection.false_negatives == 1


class TestOnRealFleet:
    @pytest.fixture(scope="class")
    def report(self):
        study = run_pilot_study(generate_population(size=400, seed=17))
        return score_study(study)

    def test_detection_precision_perfect(self, report):
        """The technique never flags a clean path (a property the
        invariant suite also asserts per-scenario)."""
        assert report.detection.precision == 1.0

    def test_cpe_recall_perfect(self, report):
        """Every true CPE interceptor answers version.bind identically
        via both paths — recall 1.0 by construction of DNAT."""
        assert report.cpe.recall == 1.0

    def test_isp_precision_perfect(self, report):
        """WITHIN_ISP is only concluded from an answered bogon query,
        which only an in-AS interceptor can produce."""
        assert report.within_isp.precision == 1.0

    def test_render(self, report):
        text = report.render()
        assert "precision" in text and "confusion" in text.lower()
