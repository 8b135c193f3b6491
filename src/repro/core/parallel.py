"""Sharded, multi-process fleet execution for the pilot study.

Every probe's scenario is an independent simulation — its own network,
its own clock, its own per-probe RNG seeded from ``probe_id`` — which is
exactly the per-vantage-point parallelism real measurement platforms
exploit (the paper's RIPE Atlas pilot ran ~10k probes concurrently).
This module chunks a fleet of :class:`~repro.atlas.probe.ProbeSpec`\\ s
into :class:`FleetShard`\\ s, measures each shard in a pool of worker
processes, and merges the resulting
:class:`~repro.core.study.ProbeRecord`\\ s back in the original fleet
order.

Determinism guarantee: because each worker builds the same read-only
:class:`~repro.resolvers.directory.NameDirectory`, and every probe is
measured by a pure function of its spec, the merged record list is
byte-identical to a serial run regardless of worker count, shard count,
or shard completion order. The same holds for metrics: each shard
collects into its own :class:`~repro.core.metrics.MetricsRegistry`, and
the driver merges the snapshots in *shard order* (= fleet order), so
counters, histograms and the event log are identical for any worker
count (wall-clock timings, the one intentionally non-deterministic
section, are summed).
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.atlas.probe import ProbeSpec

from .metrics import MetricsRegistry, MetricsSnapshot, active_registry, use_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (study imports us)
    from repro.core.study import ProbeRecord, StudyConfig
    from repro.store import ResultStore

#: Shards handed out per worker; >1 smooths load imbalance (an offline
#: probe is ~free, an intercepted dual-stack probe is ~20 exchanges) and
#: gives the progress callback finer granularity.
DEFAULT_SHARDS_PER_WORKER = 4

#: Segment size for the in-process (``workers=1``) path when a result
#: store journals the run: small enough that an interruption loses
#: little work, large enough that fsync batching stays off the hot path.
SERIAL_SEGMENT_PROBES = 32


@dataclass(frozen=True)
class FleetShard:
    """A contiguous slice of the fleet plus its original positions."""

    shard_id: int
    indices: tuple[int, ...]
    specs: tuple[ProbeSpec, ...]

    def __len__(self) -> int:
        return len(self.specs)


@dataclass
class FleetResult:
    """Everything a fleet measurement produced."""

    records: list["ProbeRecord"] = field(default_factory=list)
    #: Merged instrumentation, when the run collected metrics.
    metrics: Optional[MetricsSnapshot] = None


def default_worker_count() -> int:
    """Worker count used for ``workers=None``: one per available core."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def shard_fleet(specs: Sequence[ProbeSpec], shards: int) -> list[FleetShard]:
    """Split ``specs`` into at most ``shards`` contiguous, near-equal slices.

    Order is preserved: concatenating the shards' specs reproduces the
    input, and each shard remembers the original index of every spec so
    :func:`merge_shard_records` can restore fleet order exactly.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    count = min(shards, len(specs))
    out: list[FleetShard] = []
    base, extra = divmod(len(specs), count) if count else (0, 0)
    start = 0
    for shard_id in range(count):
        size = base + (1 if shard_id < extra else 0)
        stop = start + size
        out.append(
            FleetShard(
                shard_id=shard_id,
                indices=tuple(range(start, stop)),
                specs=tuple(specs[start:stop]),
            )
        )
        start = stop
    return out


# -- worker side -----------------------------------------------------------

#: Per-process state: the shared read-only NameDirectory is built once
#: per worker (not once per probe — zone construction dominates small
#: probes) and the whole StudyConfig rides along from the initializer.
_worker_state: dict = {}


def _init_worker(config: "StudyConfig") -> None:
    from repro.atlas.scenario import ScenarioCache
    from repro.resolvers.directory import build_default_directory

    _worker_state["directory"] = build_default_directory()
    _worker_state["config"] = config
    # One scenario cache per worker process: shards reuse topologies
    # across probes (fast engine only; a no-op for the reference engine).
    _worker_state["scenario_cache"] = ScenarioCache(
        directory=_worker_state["directory"]
    )


def measure_shard(
    shard: FleetShard,
    run_transparency: Optional[bool] = None,
    directory=None,
    config: Optional["StudyConfig"] = None,
    scenario_cache=None,
) -> list[tuple[int, "ProbeRecord"]]:
    """Measure one shard; returns ``(original_index, record)`` pairs.

    Runs in a worker process (reading state planted by ``_init_worker``)
    but is also callable in-process — tests and the ``workers=1`` path
    use it directly by passing ``config``/``directory``. A bare
    ``run_transparency`` is still honoured for older callers and
    overrides the config's value. Study-level metrics report into the
    ambient registry (see :func:`repro.core.metrics.use_registry`).

    ``scenario_cache`` amortises topology construction across the
    shard's probes; ``None`` falls back to the worker-process cache or,
    in-process, a cache local to this call. Records are byte-identical
    either way.

    Probe dedup: two online probes with the same scenario signature and
    the same ``responds_v4``/``responds_v6`` masks are *the same
    measurement* — every answer template the pipeline compares is a
    pure function of those inputs, and the per-probe values the record
    does carry (``probe_id``, organization facts, ``true_location``)
    come straight from the spec. Under the fast engine, with clean
    links, no retry policy and metrics off, the shard therefore
    measures each distinct key once and substitutes the identity fields
    for its siblings. The reference engine never dedups, which is what
    lets the equivalence tests certify the shortcut.
    """
    from dataclasses import replace

    from repro.core.study import classification_to_record, measure_probe

    if directory is None:
        directory = _worker_state.get("directory")
    if directory is None:  # in-process call without explicit directory
        from repro.resolvers.directory import build_default_directory

        directory = build_default_directory()
    if config is None:
        config = _worker_state.get("config")
    if scenario_cache is None:
        scenario_cache = _worker_state.get("scenario_cache")
    if scenario_cache is None:
        from repro.atlas.scenario import ScenarioCache

        scenario_cache = ScenarioCache(directory=directory)
    if run_transparency is None:
        run_transparency = config.run_transparency if config is not None else True
    impairment = config.impairment if config is not None else None
    impairment_seed = config.impairment_seed if config is not None else 0
    retry = config.retry if config is not None else None
    engine = config.engine if config is not None else "fast"
    transport = config.transport if config is not None else "udp53"
    evasion = config.evasion if config is not None else False
    detector = config.detector if config is not None else "heuristic"
    fingerprint = config.fingerprint if config is not None else False
    registry = active_registry()
    # Dedup is only sound when nothing per-probe beyond the memo key can
    # influence the record: impairment streams and retry jitter are
    # probe_id-seeded, and metrics runs must emit every probe's pipeline
    # events for snapshot determinism.
    memo = None
    if (
        engine == "fast"
        and impairment is None
        and retry is None
        and (config is None or not config.metrics)
        and scenario_cache is not None
        and directory is scenario_cache.directory
    ):
        from repro.atlas.scenario import ScenarioSpec, scenario_signature

        memo = scenario_cache.record_memo
    pairs = []
    for index, spec in zip(shard.indices, shard.specs):
        key = None
        if memo is not None:
            signature = scenario_signature(ScenarioSpec(probe=spec, engine=engine))
            if signature is not None:
                key = (
                    signature,
                    spec.responds_v4,
                    spec.responds_v6,
                    spec.online,
                    run_transparency,
                    transport,
                    evasion,
                    detector,
                    fingerprint,
                )
                cached = memo.get(key)
                if cached is not None:
                    record = replace(
                        cached,
                        probe_id=spec.probe_id,
                        organization=spec.organization.name,
                        asn=spec.asn,
                        country=spec.country,
                        true_location=spec.true_location().value,
                    )
                    pairs.append((index, record))
                    registry.inc("study.probes.measured")
                    if not record.online:
                        registry.inc("study.probes.offline")
                    if registry.probe_events:
                        registry.event(
                            "probe",
                            probe_id=record.probe_id,
                            online=record.online,
                            verdict=record.verdict,
                            transparency=record.transparency,
                            replication_seen=record.replication_seen,
                        )
                    continue
        classification = measure_probe(
            spec,
            run_transparency=run_transparency,
            directory=directory,
            impairment=impairment,
            impairment_seed=impairment_seed,
            retry=retry,
            engine=engine,
            scenario_cache=scenario_cache,
            transport=transport,
            evasion=evasion,
            detector=detector,
            fingerprint=fingerprint,
        )
        record = classification_to_record(spec, classification, detector=detector)
        if key is not None:
            memo[key] = record
        pairs.append((index, record))
        registry.inc("study.probes.measured")
        if not record.online:
            registry.inc("study.probes.offline")
        if registry.probe_events:
            registry.event(
                "probe",
                probe_id=record.probe_id,
                online=record.online,
                verdict=record.verdict,
                transparency=record.transparency,
                replication_seen=record.replication_seen,
            )
    return pairs


def _measure_shard_job(
    shard: FleetShard,
) -> tuple[int, list[tuple[int, "ProbeRecord"]], Optional[MetricsSnapshot]]:
    """Pool entry point: measure a shard, optionally under a fresh
    per-shard registry, and ship the snapshot home with the records."""
    config = _worker_state.get("config")
    if config is None or not config.metrics:
        return shard.shard_id, measure_shard(shard), None
    registry = MetricsRegistry(trace=config.trace)
    with use_registry(registry):
        pairs = measure_shard(shard)
    return shard.shard_id, pairs, registry.snapshot()


# -- driver side ------------------------------------------------------------


def merge_shard_records(
    shard_results: Sequence[Sequence[tuple[int, "ProbeRecord"]]],
) -> list["ProbeRecord"]:
    """Flatten shard outputs back into original fleet order.

    Shards complete in whatever order the pool finishes them; sorting on
    the original index restores exactly the record order a serial run
    produces (for generated fleets this is also ascending ``probe_id``).
    """
    flat = [pair for result in shard_results for pair in result]
    flat.sort(key=lambda pair: pair[0])
    return [record for _index, record in flat]


def _resolve_workers(config: "StudyConfig", total: int) -> int:
    workers = config.workers
    if workers is None:
        workers = default_worker_count()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return min(workers, max(1, total))


def measure_fleet(
    specs: Sequence[ProbeSpec],
    config: "StudyConfig",
    progress: Optional[Callable[[int, int], None]] = None,
    shards_per_worker: int = DEFAULT_SHARDS_PER_WORKER,
    mp_context=None,
    store: Optional["ResultStore"] = None,
) -> FleetResult:
    """Measure the whole fleet as :class:`~repro.core.study.StudyConfig`
    says; return records in fleet order plus the merged metrics.

    ``config.workers=None`` uses one worker per available core;
    ``workers=1`` measures in-process (no pool, no pickling). Progress
    callbacks are aggregated across workers: ``progress(done, total)``
    fires in the driver process each time a shard completes, with
    ``done`` counting probes (not shards) measured so far.

    With a :class:`~repro.store.ResultStore`, completed segments stream
    into its journal as they finish, already-journaled probes are
    skipped, and the returned result is reconstructed *from the
    journal* — byte-identical to a store-less run for any worker count
    and any interruption point (see :mod:`repro.store`).
    """
    if store is not None:
        return _measure_fleet_stored(
            specs, config, store,
            progress=progress,
            shards_per_worker=shards_per_worker,
            mp_context=mp_context,
        )
    specs = list(specs)
    total = len(specs)
    workers = _resolve_workers(config, total)

    if workers == 1 or total == 0:
        from repro.atlas.scenario import ScenarioCache
        from repro.resolvers.directory import build_default_directory

        registry = MetricsRegistry(trace=config.trace) if config.metrics else None
        with use_registry(registry) if registry is not None else nullcontext():
            directory = build_default_directory()
            scenario_cache = ScenarioCache(directory=directory)
            records: list["ProbeRecord"] = []
            for index, spec in enumerate(specs):
                shard = FleetShard(0, (index,), (spec,))
                records.extend(
                    record
                    for _i, record in measure_shard(
                        shard,
                        directory=directory,
                        config=config,
                        scenario_cache=scenario_cache,
                    )
                )
                if progress is not None:
                    progress(index + 1, total)
        return FleetResult(
            records=records,
            metrics=registry.snapshot() if registry is not None else None,
        )

    shards = shard_fleet(specs, workers * max(1, shards_per_worker))
    shard_records: list[Sequence[tuple[int, "ProbeRecord"]]] = []
    #: shard_id -> snapshot, merged in shard (= fleet) order at the end.
    shard_snapshots: dict[int, MetricsSnapshot] = {}
    done = 0
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=mp_context,
        initializer=_init_worker,
        initargs=(config,),
    ) as pool:
        pending = {pool.submit(_measure_shard_job, shard): shard for shard in shards}
        while pending:
            completed, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in completed:
                shard = pending.pop(future)
                shard_id, pairs, snapshot = future.result()
                shard_records.append(pairs)
                if snapshot is not None:
                    shard_snapshots[shard_id] = snapshot
                done += len(shard)
                if progress is not None:
                    progress(done, total)
    metrics = None
    if config.metrics:
        metrics = MetricsSnapshot.merge_all(
            shard_snapshots[shard_id] for shard_id in sorted(shard_snapshots)
        )
    return FleetResult(records=merge_shard_records(shard_records), metrics=metrics)


def _shard_pairs(
    pairs: Sequence[tuple[int, ProbeSpec]], shards: int
) -> list[FleetShard]:
    """Like :func:`shard_fleet`, but over ``(fleet_index, spec)`` pairs —
    the remaining work of a resumed study, whose indices need not be
    contiguous."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    count = min(shards, len(pairs))
    out: list[FleetShard] = []
    base, extra = divmod(len(pairs), count) if count else (0, 0)
    start = 0
    for shard_id in range(count):
        stop = start + base + (1 if shard_id < extra else 0)
        chunk = pairs[start:stop]
        out.append(
            FleetShard(
                shard_id=shard_id,
                indices=tuple(index for index, _spec in chunk),
                specs=tuple(spec for _index, spec in chunk),
            )
        )
        start = stop
    return out


def _measure_fleet_stored(
    specs: Sequence[ProbeSpec],
    config: "StudyConfig",
    store: "ResultStore",
    progress: Optional[Callable[[int, int], None]] = None,
    shards_per_worker: int = DEFAULT_SHARDS_PER_WORKER,
    mp_context=None,
) -> FleetResult:
    """The journaled fleet path: skip done probes, stream segments into
    the store, rebuild the result from the journal.

    Raises :class:`~repro.store.StoreInterrupted` when the store's
    probe budget runs out before the fleet is covered — the journal
    then holds everything measured so far, ready for a resumed run.
    """
    from repro.store import StoreInterrupted

    specs = list(specs)
    total = len(specs)
    done = store.begin_study(config, specs)
    remaining = [(i, specs[i]) for i in range(total) if i not in done]
    truncated = False
    if store.probe_budget is not None and len(remaining) > store.probe_budget:
        remaining = remaining[: store.probe_budget]
        truncated = True
    workers = _resolve_workers(config, len(remaining))
    completed = len(done)
    if progress is not None and remaining:
        progress(completed, total)

    try:
        if remaining and workers == 1:
            from repro.atlas.scenario import ScenarioCache
            from repro.resolvers.directory import build_default_directory

            directory = build_default_directory()
            # One cache across all segments: reused scenarios re-capture
            # the ambient registry per probe, so each segment's metrics
            # still land in that segment's own snapshot.
            scenario_cache = ScenarioCache(directory=directory)
            for shard in _shard_pairs(
                remaining, max(1, len(remaining) // SERIAL_SEGMENT_PROBES)
            ):
                registry = (
                    MetricsRegistry(trace=config.trace) if config.metrics else None
                )
                context = (
                    use_registry(registry) if registry is not None else nullcontext()
                )
                with context:
                    pairs = measure_shard(
                        shard,
                        directory=directory,
                        config=config,
                        scenario_cache=scenario_cache,
                    )
                store.append_segment(
                    pairs, registry.snapshot() if registry is not None else None
                )
                completed += len(pairs)
                if progress is not None:
                    progress(completed, total)
        elif remaining:
            shards = _shard_pairs(remaining, workers * max(1, shards_per_worker))
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=mp_context,
                initializer=_init_worker,
                initargs=(config,),
            ) as pool:
                pending = {
                    pool.submit(_measure_shard_job, shard): shard for shard in shards
                }
                while pending:
                    ready, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in ready:
                        shard = pending.pop(future)
                        _shard_id, pairs, snapshot = future.result()
                        store.append_segment(pairs, snapshot)
                        completed += len(shard)
                        if progress is not None:
                            progress(completed, total)
    finally:
        store.sync()
    if truncated:
        raise StoreInterrupted(completed, total)
    records, metrics = store.collect_study()
    return FleetResult(records=records, metrics=metrics)

