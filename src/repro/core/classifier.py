"""The three-step interception locator (Figure 2 of the paper).

``InterceptionLocator`` composes the three techniques:

1. :mod:`~repro.core.detector` — *are* queries intercepted? (location
   queries, all four providers, primary + secondary, both families);
2. :mod:`~repro.core.cpe_check` — is the CPE the interceptor?
   (version.bind comparison);
3. :mod:`~repro.core.isp_check` — failing that, is the interceptor
   inside the ISP? (bogon queries);

plus the §4.1.2 transparency check. The output mirrors the paper's
classification: ``NOT_INTERCEPTED``, ``CPE``, ``WITHIN_ISP``, or
``UNKNOWN`` (potentially beyond the ISP).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.atlas.measurement import ExchangeStatus, MeasurementClient
from repro.net.addr import IPAddress
from repro.resolvers.public import Provider

from .cert_validate import CertReport
from .cpe_check import CpeCheckResult, check_cpe
from .detector import DetectionReport, InterceptionStatus, detect_all
from .encrypted_probe import (
    EncryptedProfile,
    EncryptedVerdict,
    EvasionOutcome,
    evasion_outcome_of,
    probe_encrypted_provider,
)
from .isp_check import IspCheckResult, check_isp
from .metrics import active_registry
from .transparency import ProbeTransparency, TransparencyResult, check_transparency

if TYPE_CHECKING:  # pragma: no cover
    from .fingerprint_probe import FingerprintReport


class LocatorVerdict(enum.Enum):
    """Where the interceptor was found."""

    NOT_INTERCEPTED = "not-intercepted"
    CPE = "cpe"
    WITHIN_ISP = "within-isp"
    UNKNOWN = "unknown"  # beyond the ISP, or a bogon-discarding interceptor
    INCONCLUSIVE = "inconclusive"  # a step exhausted its retry budget
    NO_DATA = "no-data"  # the probe never answered any measurement


class StepOutcome(enum.Enum):
    """How one locator step ended.

    ``INCONCLUSIVE`` means the step burned its entire retransmission
    budget on queries that still timed out, or a measurement came back
    truncated (TC bit set, no complete answer, no TCP fallback) — the
    measurement is missing, not negative, so the pipeline must degrade
    to an explicit "don't know" rather than risk a misclassification.
    Only reachable under a retry policy (``attempts > 1``) or a
    TC-answering path: classic runs keep their historical verdicts bit
    for bit.
    """

    COMPLETE = "complete"
    INCONCLUSIVE = "inconclusive"


@dataclass
class ProbeClassification:
    """Full record of one probe's journey through the pipeline."""

    detection: DetectionReport
    verdict: LocatorVerdict
    analysis_family: Optional[int] = None
    cpe_check: Optional[CpeCheckResult] = None
    isp_check: Optional[IspCheckResult] = None
    transparency: Optional[TransparencyResult] = None
    #: Per-step outcome; steps that never ran are absent.
    step_outcomes: dict[str, StepOutcome] = field(default_factory=dict)
    #: Encrypted transport the evasion study retried over (None when the
    #: study ran plaintext-only).
    evasion_transport: Optional[str] = None
    #: Opportunistic-profile encrypted verdicts, one per intercepted
    #: provider of the analysis family; empty when evasion did not run.
    evasion: dict[Provider, EncryptedVerdict] = field(default_factory=dict)
    #: Which registry detector(s) produced this classification
    #: (``"heuristic"``, ``"cert"`` or ``"both"``).
    detector: str = "heuristic"
    #: Certificate cross-validation report, when the cert detector ran.
    cert: Optional["CertReport"] = None
    #: Ambiguity-probe fingerprint of the interceptor software, when the
    #: study's fingerprint pass ran and the probe was intercepted (see
    #: :mod:`repro.core.fingerprint_probe`).
    fingerprint: Optional["FingerprintReport"] = None

    @property
    def intercepted(self) -> bool:
        # Compared by verdict *value*, not enum identity: the verdict
        # may be a LocatorVerdict or a CertVerdict (any detector verdict
        # whose clean states share these spellings).
        return self.verdict.value not in (
            LocatorVerdict.NOT_INTERCEPTED.value,
            LocatorVerdict.INCONCLUSIVE.value,
            LocatorVerdict.NO_DATA.value,
        )

    @property
    def inconclusive_steps(self) -> tuple[str, ...]:
        """Names of steps that exhausted their budget, sorted."""
        return tuple(
            sorted(
                name
                for name, outcome in self.step_outcomes.items()
                if outcome is StepOutcome.INCONCLUSIVE
            )
        )

    @property
    def transparency_class(self) -> ProbeTransparency:
        if self.transparency is None:
            return ProbeTransparency.UNKNOWN
        return self.transparency.classification

    @property
    def cpe_version_string(self) -> Optional[str]:
        """The Table-5 string, for CPE-attributed probes."""
        if self.verdict is not LocatorVerdict.CPE or self.cpe_check is None:
            return None
        return self.cpe_check.cpe_version

    def evasion_outcomes(self) -> dict[Provider, "EvasionOutcome"]:
        """Per-provider evasion outcome (empty when evasion did not run)."""
        return {
            provider: evasion_outcome_of(verdict)
            for provider, verdict in self.evasion.items()
        }


class InterceptionLocator:
    """Runs the pipeline for one probe.

    Parameters mirror what a real deployment knows: a way to send DNS
    queries (``client``) and the probe's public address (every RIPE Atlas
    probe reports its own). Nothing else — no root access, no
    authoritative server, no traceroute.
    """

    def __init__(
        self,
        client: MeasurementClient,
        cpe_public_v4: "str | IPAddress | None" = None,
        cpe_public_v6: "str | IPAddress | None" = None,
        families: tuple[int, ...] = (4, 6),
        rng: Optional[random.Random] = None,
        run_transparency: bool = True,
        both_addresses: bool = True,
        skip=None,
        evasion_transport: Optional[str] = None,
    ) -> None:
        self.client = client
        self.cpe_public = {4: cpe_public_v4, 6: cpe_public_v6}
        self.families = families
        self.rng = rng
        self.run_transparency = run_transparency
        self.both_addresses = both_addresses
        self.skip = skip
        #: When set (``"dot"``/``"doh"``/``"doq"``), every intercepted
        #: probe retries its intercepted providers over this transport
        #: in the opportunistic profile — the encryption-evasion study.
        self.evasion_transport = evasion_transport

    def classify(self) -> ProbeClassification:
        metrics = active_registry()
        with metrics.timer("locator.wall_ms.step1_detect"):
            detection = detect_all(
                self.client,
                families=self.families,
                rng=self.rng,
                both_addresses=self.both_addresses,
                skip=self.skip,
            )
        metrics.inc("locator.step1.ran")

        family = self._analysis_family(detection)
        if family is None:
            responded = any(v.responded for v in detection.verdicts.values())
            outcomes: dict[str, StepOutcome] = {}
            if not responded:
                verdict = LocatorVerdict.NO_DATA
            elif self._detection_exhausted(detection):
                # Some (provider, family) pair never answered despite a
                # full retransmission budget: an interceptor there could
                # have been missed, so "not intercepted" would be a
                # guess. Degrade instead of misclassifying.
                verdict = LocatorVerdict.INCONCLUSIVE
                outcomes["detect"] = StepOutcome.INCONCLUSIVE
                metrics.inc("locator.step1.inconclusive")
            else:
                verdict = LocatorVerdict.NOT_INTERCEPTED
            metrics.inc("locator.verdict." + verdict.value)
            return ProbeClassification(
                detection=detection, verdict=verdict, step_outcomes=outcomes
            )

        result = ProbeClassification(
            detection=detection,
            verdict=LocatorVerdict.UNKNOWN,
            analysis_family=family,
        )
        result.step_outcomes["detect"] = StepOutcome.COMPLETE
        intercepted = detection.intercepted_providers(family)

        # Step 2: the CPE check (needs the probe's public address).
        cpe_address = self.cpe_public.get(family)
        if cpe_address is not None:
            with metrics.timer("locator.wall_ms.step2_cpe"):
                result.cpe_check = check_cpe(
                    self.client, cpe_address, intercepted, family=family, rng=self.rng
                )
            metrics.inc("locator.step2.ran")
            if result.cpe_check.cpe_is_interceptor:
                metrics.inc("locator.step2.cpe_confirmed")
                result.verdict = LocatorVerdict.CPE
                result.step_outcomes["cpe_check"] = StepOutcome.COMPLETE
            elif self._cpe_check_exhausted(result.cpe_check):
                # A resolver-side version.bind probe died despite a full
                # retry budget: the string comparison never happened, so
                # "not the CPE" is unproven. (A silent CPE-WAN address
                # is the honest-router norm and does NOT trigger this.)
                result.step_outcomes["cpe_check"] = StepOutcome.INCONCLUSIVE
                metrics.inc("locator.step2.inconclusive")
            else:
                result.step_outcomes["cpe_check"] = StepOutcome.COMPLETE

        # Step 3: the bogon check, only if the CPE was not implicated.
        if result.verdict is not LocatorVerdict.CPE:
            with metrics.timer("locator.wall_ms.step3_bogon"):
                result.isp_check = check_isp(self.client, family=family, rng=self.rng)
            metrics.inc("locator.step3.ran")
            # Bogon silence is a defined ambiguity (a bogon-discarding
            # interceptor looks identical), so step 3 is always COMPLETE.
            result.step_outcomes["isp_check"] = StepOutcome.COMPLETE
            if result.step_outcomes.get("cpe_check") is StepOutcome.INCONCLUSIVE:
                # Step 3 cannot separate CPE from ISP on its own (a CPE
                # interceptor answers bogon queries too); with step 2
                # inconclusive the localisation is unknowable this run.
                result.verdict = LocatorVerdict.INCONCLUSIVE
            elif result.isp_check.within_isp:
                metrics.inc("locator.step3.within_isp")
                result.verdict = LocatorVerdict.WITHIN_ISP
            else:
                result.verdict = LocatorVerdict.UNKNOWN

        # Transparency (§4.1.2) over the intercepted providers.
        if self.run_transparency:
            with metrics.timer("locator.wall_ms.transparency"):
                result.transparency = check_transparency(
                    self.client, intercepted, family=family, rng=self.rng
                )
            metrics.inc("locator.transparency.ran")

        # Evasion: retry the intercepted providers over the encrypted
        # transport, opportunistic profile (see ``evasion_transport``).
        if self.evasion_transport is not None:
            result.evasion_transport = self.evasion_transport
            with metrics.timer("locator.wall_ms.evasion"):
                for provider in intercepted:
                    result.evasion[provider] = probe_encrypted_provider(
                        self.client,
                        provider,
                        transport=self.evasion_transport,
                        profile=EncryptedProfile.OPPORTUNISTIC,
                        family=family,
                        rng=self.rng,
                    )
            metrics.inc("locator.evasion.ran")
            for outcome in result.evasion_outcomes().values():
                metrics.inc("locator.evasion." + outcome.value)
        metrics.inc("locator.verdict." + result.verdict.value)
        return result

    def _analysis_family(self, detection: DetectionReport) -> Optional[int]:
        """Pick the family to localise in: IPv4 first (IPv6 interception
        is rare enough that the paper analyses the families jointly)."""
        for family in (4, 6):
            if family in self.families and detection.any_intercepted(family):
                return family
        return None

    @staticmethod
    def _detection_exhausted(detection: DetectionReport) -> bool:
        """True when some measured pair is NO_RESPONSE with every one of
        its exchanges having used a retransmission budget (attempts > 1),
        or with a truncated response (TC bit, no complete answer — the
        content never arrived and there is no TCP fallback). Never true
        without a retry policy or a TC-answering path, so classic runs
        are unchanged."""
        return any(
            verdict.status is InterceptionStatus.NO_RESPONSE
            and verdict.probes
            and (
                all(p.exchange.attempts > 1 for p in verdict.probes)
                or any(
                    p.exchange.status is ExchangeStatus.TRUNCATED
                    for p in verdict.probes
                )
            )
            for verdict in detection.verdicts.values()
        )

    @staticmethod
    def _cpe_check_exhausted(cpe_check: CpeCheckResult) -> bool:
        """True when a *resolver-side* version.bind exchange timed out
        after retries — or came back truncated — so the comparison Step 2
        rests on never happened."""
        return any(
            (
                obs.exchange.status is ExchangeStatus.TIMEOUT
                and obs.exchange.attempts > 1
            )
            or obs.exchange.status is ExchangeStatus.TRUNCATED
            for obs in cpe_check.resolver_observations
        )
