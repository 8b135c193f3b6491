"""Fleet execution for the pilot study: one driver for every worker count.

Every probe's scenario is an independent simulation — its own network,
its own clock, its own per-probe RNG seeded from ``probe_id`` — which is
exactly the per-vantage-point parallelism real measurement platforms
exploit (the paper's RIPE Atlas pilot ran ~10k probes concurrently).
This module cuts the pending fleet of
:class:`~repro.atlas.probe.ProbeSpec`\\ s into fleet-order *segments*
of :data:`SEGMENT_PROBES` probes, measures the probes the segments need
in-process or in a pool of worker processes, and hands the segments,
strictly in fleet order, to one sink: memory or a
:class:`~repro.store.ResultStore` journal. A :class:`FleetSession`
holds what a run of fleet measurements under one config shares — the
probe-dedup memo, the in-process directory and scenario cache, and the
worker pool — so a campaign's epochs dedup against earlier epochs.
Dedup happens in the parent process: only a probe whose measurement
nobody in the session has made yet (a *leader*) is measured, and every
other probe (a *follower*) is filled from the memo as its segment is
sunk. The same walk plans scenario reuse: it marks each leader whose
scenario signature a later leader of the same call asks for, and a
scenario cache keeps only what is marked.

Leaders are measured in *pieces*, a piece being the leaders one segment
shares with one job. In-process, a segment's leaders are one job; a
pool gets ``workers × SHARDS_PER_WORKER`` contiguous slices of the
call's leaders, each cut at segment boundaries. Both executors measure a
piece the same way, into its own
:class:`~repro.core.metrics.MetricsRegistry` when metrics are on, and a
segment's snapshot is its pieces' snapshots merged in fleet order.

Determinism guarantee: because each worker builds the same read-only
:class:`~repro.resolvers.directory.NameDirectory`, and every probe is
measured by a pure function of its spec, records are byte-identical to
a serial run regardless of worker count. Snapshots merge exactly
(integer counters and histograms, events in fleet order), so a
segment's snapshot does not depend on how its leaders were split among
jobs (wall-clock timings, the one intentionally non-deterministic
section, are summed). Segments do not depend on the worker count
either, so a store journals the same bytes, records and metrics
segments alike, at any worker count.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, groupby
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from repro.atlas.probe import ProbeSpec

from .metrics import MetricsRegistry, MetricsSnapshot, active_registry, use_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (study imports us)
    from repro.core.study import ProbeRecord, StudyConfig
    from repro.store import ResultStore

#: Jobs handed out per worker; >1 smooths load imbalance (an offline
#: probe is ~free, an intercepted dual-stack probe is ~20 exchanges).
SHARDS_PER_WORKER = 4

#: Probes per segment, the unit a store journals (and a metrics run
#: snapshots) at any worker count: small enough that an interruption of
#: a journaled run loses little work, large enough that fsync batching
#: stays off the hot path.
SEGMENT_PROBES = 32


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
    every spec. Each shard carries the part of ``retain`` (fleet
    indices) that falls in it.
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
# walk and the memo then use the number, so each probe's key is hashed
# once per call.


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
) -> tuple[list, dict]:
    """Walk one call's pending probes in fleet order.

    A probe whose dedup key is memoised, or is the key of an earlier
    probe of the walk, *follows*; every other probe *leads* (every
    probe, with dedup off). Returns the leaders as ``(index, spec)``
    pairs, and each probe's key number (:func:`_key_number`) by fleet
    index (probes without one left out)."""
    leaders: list[tuple[int, ProbeSpec]] = []
    keys: dict[int, int] = {}
    memo, numbers = session.memo, session.key_numbers
    led: set[int] = set()
    for index, spec in zip(indices, specs):
        key = _key_number(spec, numbers) if memo is not None else None
        if key is not None:
            keys[index] = key
            if key in memo or key in led:
                continue
            led.add(key)
        leaders.append((index, spec))
    return leaders, keys


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


# -- measuring --------------------------------------------------------------

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
        # One scenario cache per worker process: the jobs it takes, in
        # submission order, reuse the scenarios their marks keep.
        scenario_cache=_scenario_cache(config, directory),
        call=None,
    )


def _measured(
    piece: FleetShard, directory, config: "StudyConfig", scenario_cache
) -> Iterator[tuple[int, "ProbeRecord"]]:
    """Measure ``piece``'s probes one at a time, yielding ``(fleet
    index, record)``; study-level metrics report into the ambient
    registry. The cache keeps the scenario of each probe in
    ``piece.retain`` for the later probe that asks for its signature,
    in this piece or in a later one measured with the same cache;
    records are byte-identical either way."""
    from repro.core.study import classification_to_record, measure_probe

    registry = active_registry()
    retain = piece.retain
    for index, spec in zip(piece.indices, piece.specs):
        if scenario_cache is not None:
            scenario_cache.keep_next = index in retain
        classification = measure_probe(
            spec, config, directory=directory, scenario_cache=scenario_cache
        )
        record = classification_to_record(
            spec, classification, detector=config.detector
        )
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


def _measure_piece(
    piece: FleetShard,
    directory,
    config: "StudyConfig",
    scenario_cache,
    consume: Callable = list,
) -> tuple:
    """Measure ``piece`` into a registry of its own when metrics are on,
    handing :func:`_measured`'s pairs to ``consume`` as they are
    measured. Returns what ``consume`` returns and the piece's snapshot
    (None with metrics off). Both executors measure every piece here."""
    registry = MetricsRegistry(trace=config.trace) if config.metrics else None
    with use_registry(registry) if registry is not None else nullcontext():
        consumed = consume(_measured(piece, directory, config, scenario_cache))
    return consumed, None if registry is None else registry.snapshot()


def _measure_job(
    job: FleetShard, starts: Sequence[int], call: int
) -> list[tuple[list[tuple[int, "ProbeRecord"]], Optional[MetricsSnapshot]]]:
    """Pool entry point: measure one job of the session's ``call``-th
    pool call piece by piece, cutting it at the segment ``starts``
    (:func:`_pieces`), and ship one ``(pairs, snapshot)`` per piece
    home. The first job of a new call drops what the worker kept for
    the last one: its marks covered only that call."""
    state = _worker_state
    config, scenario_cache = state["config"], state["scenario_cache"]
    if state["call"] != call:
        state["call"] = call
        if scenario_cache is not None:
            scenario_cache.clear()
    return [
        _measure_piece(piece, state["directory"], config, scenario_cache)
        for _number, piece in _pieces(job, starts)
    ]


def _pieces(
    shard: FleetShard, starts: Sequence[int]
) -> Iterator[tuple[int, FleetShard]]:
    """``shard`` cut at the segments' first fleet indices ``starts``:
    one ``(segment number, piece)`` per segment it shares probes with,
    in fleet order, each piece carrying its part of ``shard.retain``."""
    start = 0
    for number, group in groupby(
        shard.indices, key=lambda index: bisect_right(starts, index) - 1
    ):
        indices = tuple(group)
        stop = start + len(indices)
        piece = FleetShard(
            indices=indices,
            specs=shard.specs[start:stop],
            retain=shard.retain.intersection(indices),
        )
        yield number, piece
        start = stop


# -- driver side ------------------------------------------------------------


class FleetSession:
    """The measurement state shared by :func:`measure_fleet` calls under
    one :class:`~repro.core.study.StudyConfig`: the probe-dedup
    :attr:`memo`, the in-process directory and scenario cache, and the
    pool's worker processes, each built on first use and closed on
    exit. On an error exit, queued jobs are cancelled.

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
        #: executors; None when dedup is unsound under ``config``.
        self.memo: Optional[dict] = {} if _dedup_sound(config) else None
        #: Number of every dedup key seen in the session, by key.
        self.key_numbers: dict[tuple, int] = {}
        self._serial: Optional[tuple] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Pool calls made so far; numbers each call's jobs.
        self.pool_calls = 0

    def __enter__(self) -> "FleetSession":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        self.close(cancel=exc_type is not None)

    def close(self, cancel: bool = False) -> None:
        """Drop the in-process state and shut the pool down, cancelling
        any queued jobs when ``cancel``."""
        pool, self._pool = self._pool, None
        self._serial = None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=cancel)

    def serial_state(self) -> tuple:
        """The in-process :class:`~repro.resolvers.directory.NameDirectory`
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


def _measure(
    indices: Sequence[int],
    specs: Sequence[ProbeSpec],
    session: FleetSession,
    workers: int,
    sink: Callable,
    advance: Callable[[], None],
) -> None:
    """Measure the pending probes ``specs`` (at fleet ``indices``) and
    hand ``sink`` one segment of :data:`SEGMENT_PROBES` probes at a
    time, with its snapshot, strictly in fleet order.

    :func:`_walk` picks the leaders, and :func:`_recurring` marks those
    whose scenario a later leader needs. With ``workers == 1``, each
    segment's leaders are one piece, measured in-process when the
    driver reaches the segment, so progress advances as each probe is
    measured and the scenario cache holds nothing once the call returns.
    Otherwise the session's pool gets ``workers * SHARDS_PER_WORKER``
    contiguous slices of the leaders (a worker takes them in submission
    order, so it reuses every same-call repeat it runs), each cut into
    pieces at segment boundaries; a segment's snapshot is its pieces'
    snapshots merged in fleet order.

    Followers are filled from the memo as their segment is sunk: a
    leader always precedes its followers, so the memo holds it by then.
    """
    if not specs:
        return
    config, memo = session.config, session.memo
    leaders, keys = _walk(indices, specs, session)
    led = FleetShard(
        indices=tuple(index for index, _spec in leaders),
        specs=tuple(spec for _index, spec in leaders),
        retain=_recurring(leaders, config),
    )
    segments = shard_fleet(specs, max(1, len(specs) // SEGMENT_PROBES), indices)
    starts = [segment.indices[0] for segment in segments]

    def fill(segment: FleetShard, measured) -> list[tuple[int, "ProbeRecord"]]:
        # The segment's pairs in fleet order: a probe whose key the memo
        # holds is a follower, any other takes the next measured record
        # (in-process, measuring it only now) and memoises it.
        measured = iter(measured)
        pairs = []
        for index, spec in zip(segment.indices, segment.specs):
            key = keys.get(index)
            cached = None if key is None else memo.get(key)
            if cached is None:
                _index, record = next(measured)
                if key is not None:
                    memo[key] = record
            else:
                record = _as_sibling(cached, spec)
            pairs.append((index, record))
            advance()
        return pairs

    if workers == 1:
        directory, scenario_cache = session.serial_state()
        pieces = dict(_pieces(led, starts))
        no_leaders = FleetShard(indices=(), specs=())
        for number, segment in enumerate(segments):
            piece = pieces.get(number, no_leaders)
            consume = partial(fill, segment)
            sink(*_measure_piece(piece, directory, config, scenario_cache, consume))
        return

    jobs = shard_fleet(led.specs, workers * SHARDS_PER_WORKER, led.indices, led.retain)
    futures = []
    if jobs:
        pool = session.pool()
        session.pool_calls += 1
        futures = [
            pool.submit(_measure_job, job, starts, session.pool_calls) for job in jobs
        ]
    counts = Counter(number for job in jobs for number, _piece in _pieces(job, starts))
    results = (result for future in futures for result in future.result())
    for number, segment in enumerate(segments):
        measured = [next(results) for _ in range(counts[number])]
        pairs = fill(segment, chain.from_iterable(pairs for pairs, _ in measured))
        snapshot = None
        if config.metrics:
            snapshot = MetricsSnapshot.merge_all(part for _, part in measured)
        sink(pairs, snapshot)


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
    ``workers=1`` measures in-process (no pool, no pickling). Either
    way ``progress(done, total)`` is called once per probe, in fleet
    order, with ``done`` counting probes: in-process as each probe is
    measured, with a pool as each segment is sunk.

    With a :class:`~repro.store.ResultStore`, segments stream into its
    journal in fleet order (the same segments, so the same bytes, for
    any worker count), already-journaled probes are skipped, and the
    returned result is reconstructed *from the journal* —
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

    def advance() -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, total)

    workers = min(config.workers or default_worker_count(), max(1, len(indices)))
    pending = [specs[index] for index in indices]

    def measure(sink: Callable) -> None:
        scope = FleetSession(config) if session is None else nullcontext(session)
        with scope as active:
            _measure(indices, pending, active, workers, sink, advance)

    if store is None:
        segments: list[list[tuple[int, "ProbeRecord"]]] = []
        snapshots: list[MetricsSnapshot] = []

        def collect(pairs, snapshot) -> None:
            segments.append(pairs)
            if snapshot is not None:
                snapshots.append(snapshot)

        measure(collect)
        records = [record for pairs in segments for _index, record in pairs]
        metrics = MetricsSnapshot.merge_all(snapshots) if config.metrics else None
        return FleetResult(records=records, metrics=metrics)

    try:
        measure(store.append)
    finally:
        store.sync()
    if truncated:
        raise StoreInterrupted(done, total)
    epochs, metrics = store.collect()
    return FleetResult(records=epochs[None], metrics=metrics)
