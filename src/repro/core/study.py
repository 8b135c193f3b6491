"""The pilot study: running the locator over the whole probe fleet (§4).

For every probe the study builds its scenario, runs the three-step
pipeline plus the transparency check, and records a compact
:class:`ProbeRecord` — the raw material from which the analysis package
regenerates every table and figure of the paper's evaluation.

Run options live in :class:`StudyConfig`; instrumentation (when
``config.metrics`` is on) lands in ``StudyResult.metrics`` as a
:class:`~repro.core.metrics.MetricsSnapshot` that is identical for any
worker count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.atlas.measurement import MeasurementClient
from repro.atlas.population import PROVIDERS
from repro.atlas.probe import InterceptorLocation, ProbeSpec
from repro.atlas.retry import RetryPolicy
from repro.atlas.scenario import ScenarioSpec, build_scenario
from repro.net.impairment import LinkProfile
from repro.resolvers.public import Provider

from .classifier import LocatorVerdict, ProbeClassification
from .detector import InterceptionStatus
from .detector_registry import STUDY_DETECTORS, get_detector
from .encrypted_probe import EVASION_PRIORITY
from .metrics import TRACE_LEVELS, MetricsSnapshot
from .transparency import ProbeTransparency

#: Transports a study may run: plaintext, or one encrypted transport
#: for the evasion axis (the Do53 locator always runs regardless).
STUDY_TRANSPORTS: tuple[str, ...] = ("udp53", "dot", "doh", "doq")


@dataclass(frozen=True)
class StudyConfig:
    """Everything a pilot-study run needs to know.

    One value travels whole from :func:`run_pilot_study` through the
    fleet executor and its workers down to :func:`measure_probe`.

    ``workers``
        Worker processes for the fleet (``None`` = one per core,
        ``1`` = classic in-process path).
    ``seed``
        Fleet-seed bookkeeping, recorded on the result and its exports.
    ``run_transparency``
        Whether the §4.1.2 transparency check runs per probe.
    ``metrics``
        Collect pipeline instrumentation into ``StudyResult.metrics``.
        Off by default: the disabled path reports into the no-op
        registry and pays near zero. On, the run takes the path an
        unwatched one takes — probe dedup and answer templates
        included; a dedup follower replays its leader's snapshot —
        unless ``trace`` is ``"exchange"``, whose events name each
        probe's own CPE WAN address, so every probe is measured.
    ``trace``
        Event-log verbosity when metrics are on: ``"off"`` (aggregates
        only), ``"probe"`` (one structured event per probe) or
        ``"exchange"`` (adds one event per DNS exchange).
    ``impairment`` / ``impairment_seed``
        A :class:`~repro.net.impairment.LinkProfile` applied
        network-wide to every probe scenario (chaos studies), plus the
        seed that separates chaos trials from each other. Per-probe
        impairment streams derive from ``(impairment_seed, probe_id)``,
        so records stay byte-identical across worker counts.
    ``retry``
        A :class:`~repro.atlas.retry.RetryPolicy` applied to every DNS
        exchange; ``None`` keeps the classic single-transmission
        behaviour.
    ``engine``
        ``"fast"`` (default) dedups probes and reuses scenarios through
        a :class:`~repro.atlas.scenario.ScenarioCache`, whose scenarios
        serve repeat queries from answer templates; ``"reference"``
        measures every probe on a freshly built scenario, with no dedup,
        no reuse and no answer templates. The codec, address and route
        memos run under both engines. :mod:`repro.core.parallel` is the
        one reader of this switch. Records, metrics and store journals
        are byte-identical between the two (like ``workers``, the
        engine changes *how*, never *what*, so it is excluded from store
        fingerprints and exports — resumed stores may mix segments from
        both engines).
    ``transport`` / ``evasion``
        The encryption-evasion study axis: ``transport`` names the
        encrypted transport (``"dot"``, ``"doh"``, ``"doq"``) every
        intercepted probe retries its intercepted providers over, in
        the opportunistic profile, after the plaintext locator runs;
        ``evasion`` switches the axis on. They travel together —
        ``transport="udp53"`` (the default) means no evasion pass, and
        naming an encrypted transport without ``evasion=True`` would
        silently measure nothing, so both mismatches are rejected.
        Unlike ``workers``/``engine`` these change *what* is measured,
        so they are serialized into exports and store fingerprints.
    ``detector``
        Which registry detector(s) classify each probe:
        ``"heuristic"`` (the three-step locator, the default),
        ``"cert"`` (certificate cross-validation only) or ``"both"``
        (heuristic first, then cert on the same scenario — the
        agreement study). Like ``transport``/``evasion`` this changes
        *what* is measured, so it is serialized into exports and store
        fingerprints.
    ``fingerprint``
        Run the ambiguity-probe software fingerprint
        (:mod:`repro.core.fingerprint_probe`) against every probe the
        locator classifies as intercepted. Needs the heuristic locator
        in the loop (the probes aim at the providers it proved
        intercepted). Changes *what* is measured, so it is serialized
        into exports and store fingerprints.
    """

    workers: Optional[int] = 1
    seed: int = 0
    run_transparency: bool = True
    metrics: bool = False
    trace: str = "probe"
    impairment: Optional[LinkProfile] = None
    impairment_seed: int = 0
    retry: Optional[RetryPolicy] = None
    engine: str = "fast"
    transport: str = "udp53"
    evasion: bool = False
    detector: str = "heuristic"
    fingerprint: bool = False

    def __post_init__(self) -> None:
        if self.trace not in TRACE_LEVELS:
            raise ValueError(f"trace must be one of {TRACE_LEVELS}, got {self.trace!r}")
        if self.engine not in ("fast", "reference"):
            raise ValueError(
                f'engine must be "fast" or "reference", got {self.engine!r}'
            )
        if self.transport not in STUDY_TRANSPORTS:
            raise ValueError(
                f"transport must be one of {STUDY_TRANSPORTS}, "
                f"got {self.transport!r}"
            )
        if self.detector not in STUDY_DETECTORS:
            raise ValueError(
                f"detector must be one of {STUDY_DETECTORS}, "
                f"got {self.detector!r}"
            )
        if self.evasion and self.detector == "cert":
            raise ValueError(
                "evasion=True needs the heuristic locator in the loop; "
                'use detector="heuristic" or "both"'
            )
        if self.fingerprint and self.detector not in ("heuristic", "both"):
            raise ValueError(
                "fingerprint=True needs the heuristic locator in the loop; "
                'use detector="heuristic" or "both"'
            )
        if self.evasion and self.transport == "udp53":
            raise ValueError(
                "evasion=True needs an encrypted transport "
                '(transport="dot"/"doh"/"doq")'
            )
        if not self.evasion and self.transport != "udp53":
            raise ValueError(
                f"transport={self.transport!r} without evasion=True would "
                "measure nothing; pass evasion=True (or drop the transport)"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1 or None, got {self.workers}")
        if self.impairment is not None and not isinstance(self.impairment, LinkProfile):
            raise ValueError(
                f"impairment must be a LinkProfile, "
                f"got {type(self.impairment).__name__}"
            )
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise ValueError(
                f"retry must be a RetryPolicy, got {type(self.retry).__name__}"
            )


@dataclass(frozen=True)
class ProbeRecord:
    """Compact per-probe study outcome (everything the analysis needs)."""

    probe_id: int
    organization: str
    asn: int
    country: str
    online: bool
    #: Step-1 status per (provider value, family); missing = not measured.
    provider_status: tuple[tuple[str, int, str], ...] = ()
    verdict: str = LocatorVerdict.NO_DATA.value
    transparency: str = ProbeTransparency.UNKNOWN.value
    cpe_version_string: Optional[str] = None
    replication_seen: bool = False
    #: Locator steps that exhausted their retry budget without an
    #: answer (graceful degradation under impairment); empty on clean
    #: runs and on pre-impairment exports.
    inconclusive_steps: tuple[str, ...] = ()
    true_location: str = InterceptorLocation.NONE.value
    #: Encrypted transport the evasion pass ran over; None on plaintext
    #: studies and on pre-evasion exports.
    evasion_transport: Optional[str] = None
    #: Per-provider evasion outcome, ``(provider value, outcome value)``
    #: pairs over the intercepted providers of the analysis family.
    evasion_status: tuple[tuple[str, str], ...] = ()
    #: Aggregate evasion outcome (worst case wins: downgraded >
    #: blocked > evaded); None when evasion did not run or the probe
    #: was not intercepted.
    evasion_outcome: Optional[str] = None
    #: Which detector axis produced this record (``"heuristic"``,
    #: ``"cert"`` or ``"both"``); pre-registry exports default to
    #: ``"heuristic"``.
    detector: str = "heuristic"
    #: Certificate cross-validation verdict/cause values; None when the
    #: cert detector did not run (heuristic-only studies, old exports).
    cert_verdict: Optional[str] = None
    cert_cause: Optional[str] = None
    #: Ambiguity-probe reaction vector (six tokens, PROBE_AXES order);
    #: empty when the fingerprint pass did not run or the probe was not
    #: intercepted.
    fingerprint_signature: tuple[str, ...] = ()
    #: Signature-database match — the interceptor software the
    #: fingerprint names; None without a match (or without a pass).
    fingerprint_software: Optional[str] = None
    #: Ground truth from the probe spec: the software actually answering
    #: hijacked queries. The confusion study compares this against
    #: ``fingerprint_software``.
    true_software: Optional[str] = None

    # -- per-provider helpers ----------------------------------------------

    def _status_index(self) -> dict[tuple[str, int], str]:
        """Dict view of ``provider_status``, built once per record.

        ``functools.cached_property`` is off-limits on frozen
        dataclasses, so the memo goes through ``object.__setattr__``;
        it lives in ``__dict__`` (not a field), invisible to
        ``dataclasses.asdict``, ``==`` and ``repr``.
        """
        index = self.__dict__.get("_status_map")
        if index is None:
            index = {
                (name, family): status
                for name, family, status in self.provider_status
            }
            object.__setattr__(self, "_status_map", index)
        return index

    def status_of(self, provider: Provider, family: int) -> Optional[str]:
        return self._status_index().get((provider.value, family))

    def responded(self, provider: Provider, family: int) -> bool:
        status = self.status_of(provider, family)
        return status is not None and status != InterceptionStatus.NO_RESPONSE.value

    def intercepted_for(self, provider: Provider, family: int) -> bool:
        return self.status_of(provider, family) == InterceptionStatus.INTERCEPTED.value

    def responded_all(self, family: int) -> bool:
        return all(self.responded(p, family) for p in PROVIDERS)

    def intercepted_all(self, family: int) -> bool:
        return all(self.intercepted_for(p, family) for p in PROVIDERS)

    def intercepted_any(self, family: Optional[int] = None) -> bool:
        return any(
            status == InterceptionStatus.INTERCEPTED.value
            for _name, fam, status in self.provider_status
            if family is None or fam == family
        )

    @property
    def is_intercepted(self) -> bool:
        return self.intercepted_any()


@dataclass
class StudyResult:
    """All probe records plus bookkeeping."""

    records: list[ProbeRecord] = field(default_factory=list)
    fleet_size: int = 0
    seed: int = 0
    #: The configuration that produced this result (None for results
    #: loaded from pre-StudyConfig exports).
    config: Optional[StudyConfig] = None
    #: Pipeline instrumentation, when the study ran with
    #: ``config.metrics`` on; deterministic across worker counts.
    metrics: Optional[MetricsSnapshot] = None

    def intercepted_records(self) -> list[ProbeRecord]:
        return [r for r in self.records if r.is_intercepted]


def classification_to_record(
    spec: ProbeSpec,
    classification: Optional[ProbeClassification],
    detector: str = "heuristic",
) -> ProbeRecord:
    """Flatten one probe's pipeline output into a record.

    ``detector`` labels offline records (an offline probe produced no
    classification to read the axis from); online records carry the
    classification's own ``detector``.
    """
    if classification is None:
        return ProbeRecord(
            probe_id=spec.probe_id,
            organization=spec.organization.name,
            asn=spec.asn,
            country=spec.country,
            online=False,
            true_location=spec.true_location().value,
            detector=detector,
        )
    statuses = []
    replication = False
    for (provider, family), verdict in classification.detection.verdicts.items():
        statuses.append((provider.value, family, verdict.status.value))
        replication = replication or any(
            p.exchange.replicated for p in verdict.probes
        )
    evasion_status: tuple[tuple[str, str], ...] = ()
    evasion_outcome: Optional[str] = None
    if classification.evasion:
        outcomes = classification.evasion_outcomes()
        evasion_status = tuple(
            sorted((p.value, o.value) for p, o in outcomes.items())
        )
        evasion_outcome = next(
            o for o in EVASION_PRIORITY if o in outcomes.values()
        ).value
    cert_verdict: Optional[str] = None
    cert_cause: Optional[str] = None
    if classification.cert is not None:
        cert_verdict = classification.cert.verdict.value
        if classification.cert.cause is not None:
            cert_cause = classification.cert.cause.value
    fingerprint_signature: tuple[str, ...] = ()
    fingerprint_software: Optional[str] = None
    true_software: Optional[str] = None
    if classification.fingerprint is not None:
        from repro.fingerprint import true_software_label

        fp = classification.fingerprint
        fingerprint_signature = fp.signature
        fingerprint_software = fp.software
        true_software = true_software_label(spec, fp.destination, fp.family)
    return ProbeRecord(
        probe_id=spec.probe_id,
        organization=spec.organization.name,
        asn=spec.asn,
        country=spec.country,
        online=True,
        provider_status=tuple(sorted(statuses)),
        verdict=classification.verdict.value,
        transparency=classification.transparency_class.value,
        cpe_version_string=classification.cpe_version_string,
        replication_seen=replication,
        inconclusive_steps=classification.inconclusive_steps,
        true_location=spec.true_location().value,
        evasion_transport=classification.evasion_transport,
        evasion_status=evasion_status,
        evasion_outcome=evasion_outcome,
        detector=classification.detector,
        cert_verdict=cert_verdict,
        cert_cause=cert_cause,
        fingerprint_signature=fingerprint_signature,
        fingerprint_software=fingerprint_software,
        true_software=true_software,
    )


def scenario_spec(spec: ProbeSpec, config: StudyConfig) -> ScenarioSpec:
    """The :class:`~repro.atlas.scenario.ScenarioSpec` :func:`measure_probe`
    measures ``spec`` on under ``config``. The fleet driver plans scenario
    reuse from its signature, so plan and use read the same spec."""
    return ScenarioSpec(
        probe=spec,
        impairment=config.impairment,
        impairment_seed=config.impairment_seed,
    )


def measure_probe(
    spec: ProbeSpec,
    config: Optional[StudyConfig] = None,
    *,
    directory=None,
    scenario_cache=None,
) -> Optional[ProbeClassification]:
    """Run the full pipeline for one probe as ``config`` says (default
    :class:`StudyConfig`); None when the probe is offline.

    ``directory`` lets callers share one authoritative
    :class:`~repro.resolvers.directory.NameDirectory` across probes —
    safe because the pipeline only reads it, and it saves rebuilding the
    zones ten thousand times in a fleet study. ``scenario_cache`` (a
    :class:`~repro.atlas.scenario.ScenarioCache`, which builds over its
    own directory) lets fleet executors reuse one topology across the
    probes of a call; results are byte-identical with or without it.

    ``config.detector`` picks the registry detector(s); with ``"both"``
    the heuristic locator runs first, then certificate cross-validation
    over the same scenario and RNG stream. The locator runs the evasion
    pass itself; the ambiguity fingerprint follows when the locator
    found an interception to aim at.
    """
    if not spec.online:
        return None
    if config is None:
        config = StudyConfig()
    sspec = scenario_spec(spec, config)
    if scenario_cache is not None:
        scenario = scenario_cache.get(sspec)
    else:
        scenario = build_scenario(sspec, directory=directory)
    client = MeasurementClient(
        scenario.network, scenario.host, retry_policy=config.retry
    )
    rng = random.Random(spec.probe_id * 7919 + 13)

    skip: set[tuple[Provider, int]] = set()
    for index, provider in enumerate(PROVIDERS):
        if not spec.responds_v4[index]:
            skip.add((provider, 4))
        if not spec.responds_v6[index]:
            skip.add((provider, 6))

    families = (4, 6) if spec.has_ipv6 else (4,)
    classification: Optional[ProbeClassification] = None
    if config.detector in ("heuristic", "both"):
        classification = get_detector("heuristic").classify(
            client,
            spec,
            cpe_public_v4=scenario.cpe_public_v4,
            cpe_public_v6=scenario.cpe_public_v6,
            families=families,
            rng=rng,
            run_transparency=config.run_transparency,
            skip=skip,
            evasion_transport=config.transport if config.evasion else None,
        )
    if config.detector in ("cert", "both"):
        cert_result = get_detector("cert").classify(
            client,
            spec,
            family=4 if 4 in families else 6,
            rng=rng,
            skip=skip,
        )
        if classification is None:
            classification = cert_result
        else:
            classification.detector = "both"
            classification.cert = cert_result.cert
    assert classification is not None
    if (
        config.fingerprint
        and classification.intercepted
        and classification.analysis_family is not None
    ):
        from .fingerprint_probe import get_fingerprinter

        classification.fingerprint = get_fingerprinter("ambiguity").fingerprint(
            client, classification
        )
    return classification


def run_pilot_study(
    specs: Iterable[ProbeSpec],
    config: Optional[StudyConfig] = None,
    *,
    store=None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> StudyResult:
    """Measure every probe; return the full record set.

    All run options ride in ``config`` (see :class:`StudyConfig`);
    ``progress(done, total)`` stays a direct argument because a callback
    is per-call plumbing, not configuration. Records come back in fleet
    order and are byte-identical across worker counts — each probe is a
    pure function of its spec — and so is ``StudyResult.metrics`` when
    instrumentation is on.

    ``store`` (a :class:`~repro.store.ResultStore`) makes the run
    durable and resumable: completed segments stream into the store's
    crash-safe journal, already-journaled probes are skipped, and on
    completion the result — reconstructed from the journal, byte-
    identical to a store-less run — is finalized into the store as an
    atomic ``study.json`` export. An exhausted probe budget raises
    :class:`~repro.store.StoreInterrupted`; mismatched inputs raise
    :class:`~repro.store.StoreMismatchError`.
    """
    from repro.core.parallel import measure_fleet

    if config is None:
        config = StudyConfig()

    specs = list(specs)
    fleet = measure_fleet(specs, config, progress=progress, store=store)
    result = StudyResult(
        records=fleet.records,
        fleet_size=len(specs),
        seed=config.seed,
        config=config,
        metrics=fleet.metrics,
    )
    if store is not None:
        store.finalize(result)
    return result
