"""``repro.core.metrics`` — pipeline instrumentation (counters, histograms,
timers, and a structured per-probe event log).

The pilot study's analysis hinges on knowing *why* probes land in
NO_DATA / unknown-location buckets — loss, retries, bogon drops — not
just the final verdicts. This module is the telemetry layer the whole
measurement pipeline reports into:

* the simulator core counts events dispatched, link transits and
  packets dropped by reason (:mod:`repro.net.sim`);
* the measurement client counts queries, retransmissions and rejected
  datagrams and histograms per-transmission RTTs
  (:mod:`repro.atlas.measurement`);
* the locator counts step-level verdicts and times each step
  (:mod:`repro.core.classifier`);
* the fleet executor snapshots each shard's registry and merges them in
  fleet order (:mod:`repro.core.parallel`).

Design constraints, in order:

1. **Off-by-default-cheap.** The ambient registry defaults to
   :data:`NULL_REGISTRY`, whose methods are empty; instrumented hot
   paths pay one attribute lookup and one no-op call. Nothing is
   allocated until a caller opts in via :func:`use_registry`.
2. **Deterministic aggregation.** Counters are ints and histogram
   state is fixed-point integers (microseconds), so accumulation is
   associative: merging three shard snapshots yields *exactly* the
   numbers a serial run produces, for any sharding. Wall-clock timers
   are the one intentionally non-deterministic section; they live in a
   separate field that canonical serialization omits.
3. **Allocation-cheap.** Counter bumps are two dict operations on
   interned string keys; call sites pass pre-built label strings
   (``"exchange.timeouts.udp"``), never format at runtime.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

#: Fixed-point scale: histogram values are stored in integer
#: microseconds so sums/minima/maxima merge exactly (float addition is
#: not associative; integer addition is).
_US_PER_MS = 1000

#: Default histogram bucket upper bounds, in milliseconds. Tuned for
#: simulated RTTs: one-hop CPE answers land in the first buckets, real
#: resolver paths in the middle, retry-rescued exchanges at the top.
DEFAULT_BOUNDS_MS: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0,
)


@dataclass
class Histogram:
    """Fixed-bucket histogram with exact (integer) aggregate state."""

    bounds_ms: tuple[float, ...] = DEFAULT_BOUNDS_MS
    #: One count per bound plus a final overflow bucket.
    bucket_counts: list[int] = field(default_factory=list)
    count: int = 0
    sum_us: int = 0
    min_us: Optional[int] = None
    max_us: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(self.bounds_ms) + 1)

    def observe(self, value_ms: float) -> None:
        value_us = round(value_ms * _US_PER_MS)
        self.count += 1
        self.sum_us += value_us
        if self.min_us is None or value_us < self.min_us:
            self.min_us = value_us
        if self.max_us is None or value_us > self.max_us:
            self.max_us = value_us
        for index, bound in enumerate(self.bounds_ms):
            if value_ms <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def merge(self, other: "Histogram") -> None:
        if other.bounds_ms != self.bounds_ms:
            raise ValueError(
                f"histogram bounds differ: {self.bounds_ms} vs {other.bounds_ms}"
            )
        self.count += other.count
        self.sum_us += other.sum_us
        for index, bucket in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket
        if other.min_us is not None:
            self.min_us = (
                other.min_us if self.min_us is None else min(self.min_us, other.min_us)
            )
        if other.max_us is not None:
            self.max_us = (
                other.max_us if self.max_us is None else max(self.max_us, other.max_us)
            )

    def copy(self) -> "Histogram":
        clone = Histogram(bounds_ms=self.bounds_ms)
        clone.bucket_counts = list(self.bucket_counts)
        clone.count = self.count
        clone.sum_us = self.sum_us
        clone.min_us = self.min_us
        clone.max_us = self.max_us
        return clone

    @property
    def mean_ms(self) -> Optional[float]:
        if not self.count:
            return None
        return self.sum_us / self.count / _US_PER_MS

    def to_dict(self) -> dict[str, Any]:
        """JSON form. All fields derive from integer state, so two
        histograms with equal state serialize to identical bytes."""
        return {
            "count": self.count,
            "sum_ms": self.sum_us / _US_PER_MS,
            "min_ms": None if self.min_us is None else self.min_us / _US_PER_MS,
            "max_ms": None if self.max_us is None else self.max_us / _US_PER_MS,
            "mean_ms": self.mean_ms,
            "bounds_ms": list(self.bounds_ms),
            "bucket_counts": list(self.bucket_counts),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Histogram":
        hist = cls(bounds_ms=tuple(data["bounds_ms"]))
        hist.bucket_counts = [int(n) for n in data["bucket_counts"]]
        hist.count = int(data["count"])
        hist.sum_us = round(float(data["sum_ms"]) * _US_PER_MS)
        hist.min_us = (
            None if data.get("min_ms") is None
            else round(float(data["min_ms"]) * _US_PER_MS)
        )
        hist.max_us = (
            None if data.get("max_ms") is None
            else round(float(data["max_ms"]) * _US_PER_MS)
        )
        return hist


@dataclass
class MetricsSnapshot:
    """Immutable-ish view of a registry's state, safe to pickle/merge.

    ``counters``, ``histograms`` and ``events`` are deterministic:
    equal runs produce equal snapshots for any worker count.
    ``wall_ms`` holds wall-clock timer totals and is *not*
    deterministic; :meth:`to_dict` omits it unless asked.
    """

    counters: dict[str, int] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)
    events: list[dict[str, Any]] = field(default_factory=list)
    wall_ms: dict[str, float] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Fold ``other`` into this snapshot (in place; returns self).

        Merging is exact for counters/histograms (integer state) and
        order-preserving for events, so folding shard snapshots in
        fleet order reproduces a serial run's snapshot field for field.
        ``other`` is left as it was: a snapshot may be merged again.
        """
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = hist.copy()
            else:
                mine.merge(hist)
        self.events.extend(other.events)
        for name, value in other.wall_ms.items():
            self.wall_ms[name] = self.wall_ms.get(name, 0.0) + value
        return self

    @classmethod
    def merge_all(cls, snapshots: Iterable["MetricsSnapshot"]) -> "MetricsSnapshot":
        merged = cls()
        for snapshot in snapshots:
            merged.merge(snapshot)
        return merged

    # -- serialization ------------------------------------------------------

    def to_dict(self, include_wall: bool = False) -> dict[str, Any]:
        data: dict[str, Any] = {
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
            "histograms": {
                name: self.histograms[name].to_dict()
                for name in sorted(self.histograms)
            },
            "events": list(self.events),
        }
        if include_wall:
            data["wall_ms"] = {
                name: self.wall_ms[name] for name in sorted(self.wall_ms)
            }
        return data

    def to_json(self, indent: Optional[int] = 2, include_wall: bool = False) -> str:
        """Canonical JSON: sorted keys, no wall-clock section by default
        — byte-identical across runs and worker counts."""
        return json.dumps(
            self.to_dict(include_wall=include_wall), indent=indent, sort_keys=True
        )

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MetricsSnapshot":
        return cls(
            counters={str(k): int(v) for k, v in data.get("counters", {}).items()},
            histograms={
                str(k): Histogram.from_dict(v)
                for k, v in data.get("histograms", {}).items()
            },
            events=list(data.get("events", [])),
            wall_ms={str(k): float(v) for k, v in data.get("wall_ms", {}).items()},
        )

    def render(self) -> str:
        """Short human summary (counters, histogram means, wall times)."""
        lines = ["metrics summary:"]
        for name in sorted(self.counters):
            lines.append(f"  {name:<40} {self.counters[name]}")
        for name in sorted(self.histograms):
            hist = self.histograms[name]
            mean = hist.mean_ms
            lines.append(
                f"  {name:<40} n={hist.count}"
                + ("" if mean is None else f" mean={mean:.2f}ms"
                   f" max={(hist.max_us or 0) / _US_PER_MS:.2f}ms")
            )
        if self.events:
            lines.append(f"  events logged: {len(self.events)}")
        for name in sorted(self.wall_ms):
            lines.append(f"  {name:<40} {self.wall_ms[name]:.1f}ms wall")
        return "\n".join(lines)


#: Per-probe event verbosity levels, least to most verbose.
TRACE_LEVELS = ("off", "probe", "exchange")


class MetricsRegistry:
    """Mutable collector the pipeline reports into.

    One registry per measurement context (one per shard in parallel
    runs); :meth:`snapshot` extracts a picklable, mergeable view.
    ``trace`` controls the structured event log: ``"off"`` disables it,
    ``"probe"`` logs one event per probe, ``"exchange"`` adds one event
    per DNS exchange.
    """

    __slots__ = ("counters", "histograms", "events", "wall_ns",
                 "probe_events", "exchange_events")

    #: Class attribute so the null registry can override it without
    #: carrying instance state.
    enabled = True

    def __init__(self, trace: str = "probe") -> None:
        if trace not in TRACE_LEVELS:
            raise ValueError(f"trace must be one of {TRACE_LEVELS}, got {trace!r}")
        self.counters: dict[str, int] = {}
        self.histograms: dict[str, Histogram] = {}
        self.events: list[dict[str, Any]] = []
        self.wall_ns: dict[str, int] = {}
        self.probe_events = trace in ("probe", "exchange")
        self.exchange_events = trace == "exchange"

    # -- recording ----------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def observe_ms(
        self, name: str, value_ms: float,
        bounds_ms: tuple[float, ...] = DEFAULT_BOUNDS_MS,
    ) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(bounds_ms=bounds_ms)
        hist.observe(value_ms)

    def event(self, kind: str, **fields: Any) -> None:
        self.events.append({"kind": kind, **fields})

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate wall-clock time under ``name`` (non-deterministic
        section; excluded from canonical snapshots)."""
        started = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - started
            self.wall_ns[name] = self.wall_ns.get(name, 0) + elapsed

    # -- extraction ---------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters=dict(self.counters),
            histograms={
                name: hist.copy() for name, hist in self.histograms.items()
            },
            events=list(self.events),
            wall_ms={name: ns / 1e6 for name, ns in self.wall_ns.items()},
        )


class _NullRegistry(MetricsRegistry):
    """The disabled registry: every hook is an empty method.

    Shared singleton (:data:`NULL_REGISTRY`); instrumented code calls it
    unconditionally, so the disabled hot path costs one no-op call.
    """

    enabled = False

    def __init__(self) -> None:  # no dict allocations at all
        pass

    @property
    def probe_events(self) -> bool:  # type: ignore[override]
        return False

    @property
    def exchange_events(self) -> bool:  # type: ignore[override]
        return False

    def inc(self, name: str, value: int = 1) -> None:
        pass

    def observe_ms(
        self, name: str, value_ms: float,
        bounds_ms: tuple[float, ...] = DEFAULT_BOUNDS_MS,
    ) -> None:
        pass

    def event(self, kind: str, **fields: Any) -> None:
        pass

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        yield

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot()


#: The ambient default: instrumentation points all hit this until a
#: caller installs a real registry with :func:`use_registry`.
NULL_REGISTRY = _NullRegistry()

_active: MetricsRegistry = NULL_REGISTRY


def active_registry() -> MetricsRegistry:
    """The registry new measurement contexts should report into."""
    return _active


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the ambient registry for the duration.

    Components capture the ambient registry when they are *constructed*
    (e.g. :class:`repro.net.sim.Network` at ``__init__``), so the
    context must wrap scenario construction, not just the exchanges.
    """
    global _active
    previous = _active
    _active = registry
    try:
        yield registry
    finally:
        _active = previous
