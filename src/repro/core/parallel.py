"""Sharded, multi-process fleet execution for the pilot study.

Every probe's scenario is an independent simulation — its own network,
its own clock, its own per-probe RNG seeded from ``probe_id`` — which is
exactly the per-vantage-point parallelism real measurement platforms
exploit (the paper's RIPE Atlas pilot ran ~10k probes concurrently).
This module chunks a fleet of :class:`~repro.atlas.probe.ProbeSpec`\\ s
into :class:`FleetShard`\\ s, measures each shard in-process or in a
pool of worker processes, and hands every finished shard to one sink:
memory (records merged back in fleet order) or a
:class:`~repro.store.ResultStore` journal. A :class:`FleetSession`
holds what a run of fleet measurements under one config shares — the
probe-dedup memo, the serial path's directory and scenario cache, and
the worker pool — so a campaign's epochs dedup against earlier epochs.
Dedup happens in the parent process: a pool is sent only the
measurements nobody in the session has made yet. The same walk plans
scenario reuse: it marks each measurement whose scenario signature a
later one of the same call asks for, and a scenario cache keeps only
what is marked.

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
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from repro.atlas.probe import ProbeSpec

from .metrics import MetricsRegistry, MetricsSnapshot, active_registry, use_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (study imports us)
    from repro.core.study import ProbeRecord, StudyConfig
    from repro.store import ResultStore

#: Shards handed out per worker; >1 smooths load imbalance (an offline
#: probe is ~free, an intercepted dual-stack probe is ~20 exchanges) and
#: gives the progress callback finer granularity.
SHARDS_PER_WORKER = 4

#: Segment size for the in-process (``workers=1``) path: small enough
#: that an interruption of a journaled run loses little work, large
#: enough that fsync batching stays off the hot path.
SERIAL_SEGMENT_PROBES = 32


@dataclass(frozen=True)
class FleetShard:
    """A slice of the fleet plus its original positions."""

    indices: tuple[int, ...]
    specs: tuple[ProbeSpec, ...]
    #: Fleet indices whose scenario stays cached, because a later probe
    #: of the same call asks for its signature (see :func:`_recurring`).
    retain: frozenset[int] = frozenset()

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


def shard_fleet(
    specs: Sequence[ProbeSpec],
    shards: int,
    indices: Optional[Sequence[int]] = None,
    retain: frozenset[int] = frozenset(),
) -> list[FleetShard]:
    """Split ``specs`` into at most ``shards`` contiguous, near-equal slices.

    ``indices`` gives each spec's fleet position (default: its position
    in ``specs``); a resumed study's remaining work need not be
    contiguous. Order is preserved: concatenating the shards' specs
    reproduces the input, and each shard remembers the fleet index of
    every spec so :func:`merge_shard_records` can restore fleet order
    exactly. Each shard carries the part of ``retain`` (fleet indices)
    that falls in it.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if indices is None:
        indices = range(len(specs))
    count = min(shards, len(specs))
    out: list[FleetShard] = []
    base, extra = divmod(len(specs), count) if count else (0, 0)
    start = 0
    for position in range(count):
        stop = start + base + (1 if position < extra else 0)
        shard_indices = tuple(indices[start:stop])
        out.append(
            FleetShard(
                indices=shard_indices,
                specs=tuple(specs[start:stop]),
                retain=retain.intersection(shard_indices),
            )
        )
        start = stop
    return out


# -- probe dedup -------------------------------------------------------------
#
# A probe's dedup key is every ``ProbeSpec`` field but ``probe_id`` and
# ``organization``. The organization only labels a record: its prefixes
# and ASN shape the scenario (addresses, the ISP resolver's per-AS TLS
# identity), but every check compares such a value with an expectation
# built from the same scenario, so no record field reads it. The
# ``ScenarioSpec`` slots the key leaves out (providers, policy overrides,
# impairment, trace) are constant within a session whose config passes
# :func:`_dedup_sound`. Two probes with the same key are therefore *the
# same measurement*: the parent process has each distinct key measured
# once per session and gives its siblings copies with their own identity
# fields (:func:`_as_sibling`). The scenario signature is the key's
# scenario fields plus those constant slots: it leaves the organization
# out too, since :func:`~repro.atlas.scenario.reset_scenario` re-homes
# prefixes, ASNs and the ISP resolver along with ``probe_id``-derived
# values. The reference engine never dedups, which is what lets the
# equivalence tests certify the shortcut.
#
# A fleet shares each distinct firmware profile and ISP behaviour among
# its specs, and those cache their hash, so a key hashes cheaply. The
# session numbers every distinct key once (:func:`_key_number`); the
# walk, the memo and the pool's waiting lists then use the number, so
# each probe's key is hashed once per call.


def _dedup_sound(config: "StudyConfig") -> bool:
    """Whether nothing per-probe beyond the dedup key can influence a
    record: impairment streams and retry jitter are probe_id-seeded
    (a null impairment profile never draws from its streams), and
    metrics runs must emit every probe's pipeline events for snapshot
    determinism."""
    return (
        config.engine == "fast"
        and (config.impairment is None or config.impairment.is_null)
        and config.retry is None
        and not config.metrics
    )


def _dedup_key(spec: ProbeSpec) -> tuple:
    """The measurement ``spec`` stands for: its fields less ``probe_id``
    and ``organization``."""
    return (
        spec.firmware,
        spec.isp,
        spec.external_policies,
        spec.has_ipv6,
        spec.responds_v4,
        spec.responds_v6,
        spec.online,
    )


def _key_number(spec: ProbeSpec, numbers: dict) -> Optional[int]:
    """The number of ``spec``'s dedup key in ``numbers``, which numbers
    every distinct key in order of first sight. None when a field is
    unhashable (such a probe is always measured)."""
    try:
        return numbers.setdefault(_dedup_key(spec), len(numbers))
    except TypeError:
        return None


def _as_sibling(record: "ProbeRecord", spec: ProbeSpec) -> "ProbeRecord":
    """``record``, a measurement of ``spec``'s dedup key, as ``spec``'s own:
    a copy of its fields with the five identity fields set from ``spec``,
    made without the dataclass ``__init__``."""
    sibling = object.__new__(type(record))
    state = sibling.__dict__
    state.update(record.__dict__)
    # The record's lazy provider-status index is not a field; leave it
    # out so a sibling pickles like a freshly built record.
    state.pop("_status_map", None)
    organization = spec.organization
    state["probe_id"] = spec.probe_id
    state["organization"] = organization.name
    state["asn"] = organization.asn
    state["country"] = organization.country
    state["true_location"] = spec.true_location().value
    return sibling


def _walk(
    indices: Sequence[int], specs: Sequence[ProbeSpec], session: "FleetSession"
) -> tuple[list, list, dict]:
    """Walk one call's pending probes in fleet order.

    A probe whose dedup key is memoised, or is the key of an earlier
    probe of the walk, *follows*; every other probe *leads* (every
    probe, with dedup off). Returns the leaders and the followers as
    ``(index, spec)`` pairs, and each probe's key number
    (:func:`_key_number`) by fleet index (probes without one left
    out)."""
    leaders: list[tuple[int, ProbeSpec]] = []
    followers: list[tuple[int, ProbeSpec]] = []
    keys: dict[int, int] = {}
    memo, numbers = session.memo, session.key_numbers
    led: set[int] = set()
    for index, spec in zip(indices, specs):
        key = _key_number(spec, numbers) if memo is not None else None
        if key is not None:
            keys[index] = key
            if key in memo or key in led:
                followers.append((index, spec))
                continue
            led.add(key)
        leaders.append((index, spec))
    return leaders, followers, keys


def _recurring(
    leaders: Sequence[tuple[int, ProbeSpec]], config: "StudyConfig"
) -> frozenset[int]:
    """Fleet indices of the ``leaders`` whose scenario signature a later
    online leader of the same call asks for. The signature is read from
    :func:`~repro.core.study.scenario_spec`, the spec the probe is
    measured on."""
    from repro.atlas.scenario import scenario_signature
    from repro.core.study import scenario_spec

    last: dict[tuple, int] = {}
    recurring: set[int] = set()
    for index, spec in leaders:
        if not spec.online:
            continue
        signature = scenario_signature(scenario_spec(spec, config))
        if signature is None:
            continue
        if signature in last:
            recurring.add(last[signature])
        last[signature] = index
    return frozenset(recurring)


# -- worker side -----------------------------------------------------------

#: Per-process state: the shared read-only NameDirectory is built once
#: per worker (not once per probe — zone construction dominates small
#: probes) and the whole StudyConfig rides along from the initializer.
#: It lives as long as the worker, i.e. one :class:`FleetSession`.
#: ``call`` numbers the session's call the worker last measured for.
_worker_state: dict = {}


def _scenario_cache(config: "StudyConfig", directory):
    """A scenario cache over ``directory`` for the fast engine; None for
    the reference engine, which builds every scenario fresh."""
    if config.engine != "fast":
        return None
    from repro.atlas.scenario import ScenarioCache

    return ScenarioCache(directory=directory)


def _init_worker(config: "StudyConfig") -> None:
    from repro.resolvers.directory import build_default_directory

    directory = build_default_directory()
    _worker_state.update(
        directory=directory,
        config=config,
        # One scenario cache per worker process: the shards it takes,
        # in submission order, reuse the scenarios their marks keep.
        scenario_cache=_scenario_cache(config, directory),
        call=None,
    )


def measure_shard(
    shard: FleetShard,
    directory=None,
    config: Optional["StudyConfig"] = None,
    scenario_cache=None,
) -> list[tuple[int, "ProbeRecord"]]:
    """Measure one shard as ``config`` says (default
    :class:`~repro.core.study.StudyConfig`); returns
    ``(original_index, record)`` pairs. Study-level metrics report into
    the ambient registry (see :func:`repro.core.metrics.use_registry`).

    ``directory`` and ``scenario_cache`` default to a fresh directory
    and, under the fast engine, a cache local to this call; a worker
    process passes its own, built once by its initializer. The cache
    keeps the scenario of each probe in ``shard.retain`` for the later
    probe that asks for its signature, in this shard or in a later one
    the same worker takes; records are byte-identical either way.

    Every probe of the shard is measured: probe dedup happens in the
    parent process (:class:`FleetSession`), which sends a pool only the
    measurements nobody in the session has made yet.
    """
    if config is None:
        from repro.core.study import StudyConfig

        config = StudyConfig()
    if directory is None:
        from repro.resolvers.directory import build_default_directory

        directory = build_default_directory()
    if scenario_cache is None:
        scenario_cache = _scenario_cache(config, directory)
    return list(_measure_pairs(shard, directory, config, scenario_cache))


def _measure_pairs(
    shard: FleetShard,
    directory,
    config: "StudyConfig",
    scenario_cache,
    memo: Optional[dict] = None,
    keys: Optional[dict] = None,
) -> Iterator[tuple[int, "ProbeRecord"]]:
    """:func:`measure_shard`'s loop, one ``(index, record)`` at a time.

    With ``memo`` (the serial path's :attr:`FleetSession.memo`) and
    ``keys`` (each probe's key number by fleet index, from
    :func:`_walk`), a probe whose key is memoised becomes a sibling of
    that record instead of a measurement, and every new measurement is
    memoised, in fleet order."""
    from repro.core.study import classification_to_record, measure_probe

    registry = active_registry()
    retain = shard.retain
    for index, spec in zip(shard.indices, shard.specs):
        key = record = None
        if memo is not None:
            key = keys.get(index)
            cached = memo.get(key) if key is not None else None
            if cached is not None:
                record = _as_sibling(cached, spec)
        if record is None:
            if scenario_cache is not None:
                scenario_cache.keep_next = index in retain
            classification = measure_probe(
                spec, config, directory=directory, scenario_cache=scenario_cache
            )
            record = classification_to_record(
                spec, classification, detector=config.detector
            )
            if key is not None:
                memo[key] = record
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
        yield index, record


def _measure_shard_job(
    shard: FleetShard, call: int
) -> tuple[list[tuple[int, "ProbeRecord"]], Optional[MetricsSnapshot]]:
    """Pool entry point: measure a shard of the session's ``call``-th
    pool call, optionally under a fresh per-shard registry, and ship the
    snapshot home with the records. The first shard of a new call drops
    what the worker kept for the last one: its marks covered only that
    call."""
    state = _worker_state
    config, scenario_cache = state["config"], state["scenario_cache"]
    if state["call"] != call:
        state["call"] = call
        if scenario_cache is not None:
            scenario_cache.clear()
    args = (shard, state["directory"], config, scenario_cache)
    if not config.metrics:
        return measure_shard(*args), None
    registry = MetricsRegistry(trace=config.trace)
    with use_registry(registry):
        pairs = measure_shard(*args)
    return pairs, registry.snapshot()


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


class FleetSession:
    """The measurement state shared by :func:`measure_fleet` calls under
    one :class:`~repro.core.study.StudyConfig`: the probe-dedup
    :attr:`memo`, the serial path's directory and scenario cache, and
    the pool path's worker processes, each built on first use and closed
    on exit. On an error exit, queued shards are cancelled.

    A study is one session; a campaign run is one session across all
    its epochs, so later epochs reuse the memoised records of earlier
    ones. Scenarios are reused only within a call: each call plans which
    of its measurements a later one needs the scenario of, and a cache
    holds a scenario no longer than that. The memo key carries no config
    field, which is why a session is bound to the one config it was
    opened with.
    """

    def __init__(self, config: "StudyConfig") -> None:
        self.config = config
        #: Records by dedup key number (:func:`_key_number`), for both
        #: paths; None when dedup is unsound under ``config``.
        self.memo: Optional[dict] = {} if _dedup_sound(config) else None
        #: Number of every dedup key seen in the session, by key.
        self.key_numbers: dict[tuple, int] = {}
        self._serial: Optional[tuple] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Pool calls made so far; numbers each call's shards.
        self.pool_calls = 0

    def __enter__(self) -> "FleetSession":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        self.close(cancel=exc_type is not None)

    def close(self, cancel: bool = False) -> None:
        """Drop the serial state and shut the pool down, cancelling any
        queued shards when ``cancel``."""
        pool, self._pool = self._pool, None
        self._serial = None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=cancel)

    def serial_state(self) -> tuple:
        """The serial path's :class:`~repro.resolvers.directory.NameDirectory`
        and scenario cache (None under the reference engine)."""
        if self._serial is None:
            from repro.resolvers.directory import build_default_directory

            directory = build_default_directory()
            self._serial = (directory, _scenario_cache(self.config, directory))
        return self._serial

    def pool(self) -> ProcessPoolExecutor:
        """The session's worker pool, sized by the config (not by any
        one call's pending probes)."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.config.workers or default_worker_count(),
                initializer=_init_worker,
                initargs=(self.config,),
            )
        return self._pool


def _measure_serial(
    indices: Sequence[int],
    specs: Sequence[ProbeSpec],
    session: FleetSession,
    sink: Callable,
    advance: Callable[[int], None],
) -> None:
    """Measure in-process, one segment (and metrics registry) per
    :data:`SERIAL_SEGMENT_PROBES` probes, advancing progress after every
    probe.

    :func:`_walk` finds the leaders the memo will not resolve, and the
    scenario cache keeps a leader's scenario only when a later leader
    asks for its signature (:func:`_recurring`), so it holds nothing
    once the call returns."""
    if not specs:
        return
    config = session.config
    leaders, _followers, keys = _walk(indices, specs, session)
    shards = shard_fleet(
        specs,
        max(1, len(specs) // SERIAL_SEGMENT_PROBES),
        indices,
        _recurring(leaders, config),
    )
    # One cache across all segments: reused scenarios re-capture the
    # ambient registry per probe, so each segment's metrics still land
    # in that segment's own snapshot.
    directory, scenario_cache = session.serial_state()
    for shard in shards:
        registry = MetricsRegistry(trace=config.trace) if config.metrics else None
        pairs = []
        with use_registry(registry) if registry is not None else nullcontext():
            for pair in _measure_pairs(
                shard, directory, config, scenario_cache, session.memo, keys
            ):
                pairs.append(pair)
                advance(1)
        sink(pairs, registry.snapshot() if registry is not None else None)


def _measure_pool(
    indices: Sequence[int],
    specs: Sequence[ProbeSpec],
    session: FleetSession,
    shards: int,
    sink: Callable,
    advance: Callable[[int], None],
) -> None:
    """Measure in the session's process pool, sinking shards in the
    order they were submitted.

    Of :func:`_walk`'s followers, one whose dedup key is memoised
    resolves at once and the rest wait for their leader. Only leaders go
    to the pool, with the marks of :func:`_recurring`; a worker takes
    shards in submission order, so it reuses every same-call repeat it
    runs. A finished shard memoises its leaders' records and sinks them
    together with their siblings. A shard that finishes early is held
    until every earlier one is sunk, so a store journals the same bytes
    on every run; progress advances as each shard finishes."""
    memo = session.memo
    leaders, followers, keys = _walk(indices, specs, session)
    #: key number -> the probes waiting for that key's leader.
    waiting: dict[int, list[tuple[int, ProbeSpec]]] = {
        keys[index]: [] for index, _spec in leaders if index in keys
    }
    resolved: list[tuple[int, "ProbeRecord"]] = []
    for index, spec in followers:
        siblings = waiting.get(keys[index])
        if siblings is not None:
            siblings.append((index, spec))
        else:
            resolved.append((index, _as_sibling(memo[keys[index]], spec)))

    submitted = []
    if leaders:
        pool = session.pool()
        session.pool_calls += 1
        submitted = [
            pool.submit(_measure_shard_job, shard, session.pool_calls)
            for shard in shard_fleet(
                [spec for _index, spec in leaders],
                shards,
                [index for index, _spec in leaders],
                _recurring(leaders, session.config),
            )
        ]
    if resolved:
        sink(resolved, None)
        advance(len(resolved))
    finished: dict = {}
    next_to_sink = 0
    pending = set(submitted)
    while pending:
        completed, pending = wait(pending, return_when=FIRST_COMPLETED)
        for future in completed:
            pairs, snapshot = future.result()
            siblings = []
            for index, record in pairs:
                key = keys.get(index)
                if key is not None:
                    memo[key] = record
                    siblings.extend(
                        (sibling, _as_sibling(record, spec))
                        for sibling, spec in waiting.pop(key)
                    )
            pairs += siblings
            finished[future] = (pairs, snapshot)
            advance(len(pairs))
        while next_to_sink < len(submitted) and submitted[next_to_sink] in finished:
            sink(*finished.pop(submitted[next_to_sink]))
            next_to_sink += 1


def measure_fleet(
    specs: Sequence[ProbeSpec],
    config: "StudyConfig",
    progress: Optional[Callable[[int, int], None]] = None,
    store: Optional["ResultStore"] = None,
    *,
    session: Optional[FleetSession] = None,
) -> FleetResult:
    """Measure the whole fleet as :class:`~repro.core.study.StudyConfig`
    says; return records in fleet order plus the merged metrics.

    ``session`` (a :class:`FleetSession` opened on this very ``config``)
    carries the pool, directory and dedup memo over from earlier calls;
    without one, the call opens and closes its own. A session opened on
    any other config raises :class:`ValueError`: memoised
    records would otherwise be served to a config they were not
    measured under.

    ``config.workers=None`` uses one worker per available core;
    ``workers=1`` measures in-process (no pool, no pickling) and calls
    ``progress(done, total)`` after every probe; a pool calls it in the
    parent process once for the probes the memo resolves and then each
    time a shard completes, with ``done`` counting probes (not shards)
    measured so far.

    With a :class:`~repro.store.ResultStore`, completed segments stream
    into its journal in submission order (so its bytes do not depend on
    which shard finishes first), already-journaled probes are skipped,
    and the returned result is reconstructed *from the journal* —
    byte-identical to a store-less run for any worker count and any
    interruption point (see :mod:`repro.store`). Raises
    :class:`~repro.store.StoreInterrupted` when the store's probe budget
    runs out before the fleet is covered; the journal then holds
    everything measured so far, ready for a resumed run.
    """
    if session is not None and session.config is not config:
        raise ValueError("session was opened for a different StudyConfig")
    specs = list(specs)
    total = len(specs)
    indices = list(range(total))
    done = 0
    truncated = False
    if store is not None:
        from repro.analysis.export import config_to_dict
        from repro.store import StoreInterrupted, study_fingerprint

        journaled = store.begin(
            "study",
            study_fingerprint(config, specs),
            {
                "fleet_size": total,
                "seed": config.seed,
                "config": config_to_dict(config),
            },
        )
        indices = [index for index in indices if (None, index) not in journaled]
        done = len(journaled)
        if store.probe_budget is not None and len(indices) > store.probe_budget:
            indices = indices[: store.probe_budget]
            truncated = True
        if progress is not None and indices:
            progress(done, total)

    def advance(count: int) -> None:
        nonlocal done
        done += count
        if progress is not None:
            progress(done, total)

    workers = min(config.workers or default_worker_count(), max(1, len(indices)))
    pending = [specs[index] for index in indices]

    def measure(sink: Callable) -> None:
        scope = FleetSession(config) if session is None else nullcontext(session)
        with scope as active:
            if workers == 1:
                _measure_serial(indices, pending, active, sink, advance)
            else:
                _measure_pool(
                    indices,
                    pending,
                    active,
                    workers * SHARDS_PER_WORKER,
                    sink,
                    advance,
                )

    if store is None:
        shard_records: list[list[tuple[int, "ProbeRecord"]]] = []
        #: first fleet index -> snapshot, merged in fleet order at the end.
        snapshots: dict[int, MetricsSnapshot] = {}

        def collect(pairs, snapshot) -> None:
            shard_records.append(pairs)
            if snapshot is not None:
                snapshots[pairs[0][0]] = snapshot

        measure(collect)
        metrics = None
        if config.metrics:
            metrics = MetricsSnapshot.merge_all(
                snapshots[first] for first in sorted(snapshots)
            )
        return FleetResult(records=merge_shard_records(shard_records), metrics=metrics)

    try:
        measure(store.append)
    finally:
        store.sync()
    if truncated:
        raise StoreInterrupted(done, total)
    epochs, metrics = store.collect()
    return FleetResult(records=epochs[None], metrics=metrics)
