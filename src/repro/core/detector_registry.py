"""Pluggable detector registry — the PR-8 API redesign.

With two independent interception detectors (the content-heuristic
locator and the certificate cross-validator), the hard-wired
``InterceptionLocator(...)`` call path stopped scaling. This module
makes the detectors peers behind one surface, in the style of
:data:`repro.atlas.transport.TRANSPORTS`:

- :class:`Detector` — the protocol every entry satisfies:
  ``classify(client, probe, **options)`` returning a verdict-bearing
  result whose verdict is an enum with a string ``.value``, so analysis
  code consumes any detector's output without isinstance checks;
- :data:`DETECTORS` / :func:`get_detector` — the registry;
- :data:`STUDY_DETECTORS` — the values ``StudyConfig(detector=...)``
  accepts (``"both"`` runs heuristic and cert on the same scenario).

The single-provider encrypted probe is not a registry entry: the
evasion axis calls
:func:`repro.core.encrypted_probe.probe_encrypted_provider` directly.
"""

from __future__ import annotations

import random
from typing import Optional, Protocol

from repro.atlas.measurement import MeasurementClient


class Detector(Protocol):
    """Uniform detector surface: ``classify(client, probe, **options)``.

    ``probe`` is whatever identifies the measurement subject — the
    :class:`~repro.atlas.probe.ProbeSpec` for the fleet detectors, or
    ``None`` when the options say everything.
    """

    name: str

    def classify(self, client: MeasurementClient, probe=None, **options): ...


class HeuristicDetector:
    """The paper's three-step content-heuristic locator (Figure 2)."""

    name = "heuristic"

    def classify(self, client: MeasurementClient, probe=None, **options):
        from .classifier import InterceptionLocator

        result = InterceptionLocator(client, **options).classify()
        result.detector = self.name
        return result


class CertDetector:
    """Certificate cross-validation (:mod:`repro.core.cert_validate`).

    Returns a :class:`~repro.core.classifier.ProbeClassification` whose
    ``verdict`` is a :class:`~repro.core.cert_validate.CertVerdict` and
    whose ``cert`` field carries the full report — the same shape the
    heuristic produces, so records flatten identically.
    """

    name = "cert"

    def classify(
        self,
        client: MeasurementClient,
        probe=None,
        *,
        family: int = 4,
        rng: Optional[random.Random] = None,
        skip=None,
        fetch_transport: str = "dot",
    ):
        from .cert_validate import validate_certificates
        from .classifier import ProbeClassification
        from .detector import DetectionReport

        report = validate_certificates(
            client,
            family=family,
            rng=rng,
            skip=skip,
            fetch_transport=fetch_transport,
        )
        return ProbeClassification(
            detection=DetectionReport(),
            verdict=report.verdict,
            detector=self.name,
            cert=report,
        )


#: The registry. Keys are the ``repro study --detector`` spellings.
DETECTORS: dict[str, Detector] = {
    "heuristic": HeuristicDetector(),
    "cert": CertDetector(),
}

#: Detector axes a fleet study accepts: one detector, or both
#: fleet-grade detectors on the same scenario (the agreement study).
STUDY_DETECTORS: tuple[str, ...] = ("heuristic", "cert", "both")


def get_detector(name: str) -> Detector:
    """Look up a detector by name; unknown names raise ``ValueError``."""
    try:
        return DETECTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown detector {name!r}; expected one of {sorted(DETECTORS)}"
        ) from None
