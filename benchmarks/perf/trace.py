"""Outside-in layer tracing: time calls into the program from the benchmark.

Nothing under ``src/`` knows it is being traced. :class:`Tracer`
replaces the attribute each *caller* looks up — a module global, a class
attribute or a registry entry — with a timing wrapper, and puts the
original back on :meth:`Tracer.uninstall`. The patch site matters: the
locator calls ``repro.core.classifier.detect_all``, its own binding of
the name, so patching ``repro.core.detector.detect_all`` would time
nothing. The boundary tests check that every boundary a workload names
sees at least one call.

Two kinds of boundary:

- ``SPAN`` — per-probe and coarser calls (a study, a probe, a scenario
  build, a locator step, a journal sync, a served request). Each call
  records a span ``(name, start_ns, end_ns, span_id, parent_id,
  trace_id)``; the trace id is the probe id or the request number and
  children inherit it.
- ``COUNT`` — per-packet and per-exchange calls (the event loop, the
  codec, node handlers, transports). They record only calls and time,
  so memory stays bounded however many packets a run moves.

Every call of either kind updates its name's ``[calls, total_ns,
self_ns]``; self time is the call's duration minus the time covered by
the traced calls nested directly inside it. Stacks and statistics are
per thread (``repro serve`` answers requests on threads) and are merged
when read.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import Counter
from typing import Callable, NamedTuple, Optional

SPAN = "span"
COUNT = "count"

#: Header the benchmark's HTTP client sets so server-side spans carry the
#: request number as their trace id.
REQUEST_ID_HEADER = "X-Request-Id"

_TRANSPORT_NAMES = ("udp53", "dot", "doh", "doq")


class Boundary(NamedTuple):
    """One patch site: ``site`` is ``attr``, ``Class.attr``,
    ``REGISTRY[key]`` or ``REGISTRY[key].method`` inside ``module``."""

    name: str
    module: str
    site: str
    kind: str
    #: Metrics emitted per boundary: any of ``calls`` and ``self_ms``.
    emit: tuple = ("calls", "self_ms")
    #: ``args -> trace id`` for calls that start a trace.
    trace_id: Optional[Callable] = None
    #: ``(counters, args, result) -> None`` for counts read off results.
    observe: Optional[Callable] = None


def _count_events(counters, _args, events) -> None:
    counters["net.sim.events"] += events


def _count_probes(counters, _args, fleet) -> None:
    counters["core.parallel.probes"] += len(fleet.records)


def _count_entries(counters, _args, entries) -> None:
    counters["campaigns.aggregate.StoreAggregator.refresh.entries"] += entries


def _transport_observer(transport: str) -> Callable:
    attempts = f"atlas.transport.{transport}.attempts"
    timeouts = f"atlas.transport.{transport}.timeouts"

    def observe(counters, _args, result) -> None:
        counters[attempts] += result.attempts
        if result.status.value == "timeout":
            counters[timeouts] += 1

    return observe


def _request_id(args) -> Optional[str]:
    return args[0].headers.get(REQUEST_ID_HEADER)


def _transport_boundaries() -> list[Boundary]:
    out = []
    for transport in _TRANSPORT_NAMES:
        name = f"atlas.transport.{transport}"
        observe = _transport_observer(transport)
        # resolve() dispatches through the registry; MeasurementClient
        # imports the module attribute at call time.
        for site in (f"TRANSPORTS[{transport}]", f"{transport}_exchange"):
            out.append(
                Boundary(name, "repro.atlas.transport", site, COUNT,
                         emit=("calls",), observe=observe)
            )
    return out


#: Every boundary the benchmark times, outermost layers first.
BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("core.parallel.measure_fleet", "repro.core.parallel",
             "measure_fleet", SPAN, observe=_count_probes),
    Boundary("resolvers.directory.build_default_directory",
             "repro.resolvers.directory", "build_default_directory", SPAN,
             emit=("self_ms",)),
    Boundary("core.study.measure_probe", "repro.core.study", "measure_probe",
             SPAN, trace_id=lambda args: args[0].probe_id),
    Boundary("core.study.classification_to_record", "repro.core.study",
             "classification_to_record", SPAN),
    Boundary("atlas.scenario.build_scenario", "repro.atlas.scenario",
             "build_scenario", SPAN),
    Boundary("atlas.scenario.build_scenario", "repro.core.study",
             "build_scenario", SPAN),
    Boundary("atlas.scenario.reset_scenario", "repro.atlas.scenario",
             "reset_scenario", SPAN),
    Boundary("net.sim.Network.run", "repro.net.sim", "Network.run", COUNT,
             observe=_count_events),
    Boundary("net.sim.Network.transmit", "repro.net.sim", "Network.transmit",
             COUNT),
    Boundary("dnswire.Message.encode", "repro.dnswire.message",
             "Message.encode", COUNT),
    Boundary("dnswire.Message.decode", "repro.dnswire.message",
             "Message.decode", COUNT),
    Boundary("resolvers.base.DnsServerNode.respond", "repro.resolvers.base",
             "DnsServerNode.respond", COUNT),
    Boundary("cpe.forwarder.ForwarderEngine.handle_client_query",
             "repro.cpe.forwarder", "ForwarderEngine.handle_client_query",
             COUNT),
    Boundary("cpe.forwarder.ForwarderEngine.handle_upstream_response",
             "repro.cpe.forwarder", "ForwarderEngine.handle_upstream_response",
             COUNT),
    Boundary("interceptors.middlebox.MiddleboxRouter.forward",
             "repro.interceptors.middlebox", "MiddleboxRouter.forward", COUNT),
    *_transport_boundaries(),
    Boundary("core.detector.detect_all", "repro.core.classifier",
             "detect_all", SPAN),
    Boundary("core.cpe_check.check_cpe", "repro.core.classifier",
             "check_cpe", SPAN),
    Boundary("core.isp_check.check_isp", "repro.core.classifier",
             "check_isp", SPAN),
    Boundary("core.transparency.check_transparency", "repro.core.classifier",
             "check_transparency", SPAN),
    Boundary("core.cert_validate.classify", "repro.core.detector_registry",
             "DETECTORS[cert].classify", SPAN),
    Boundary("core.encrypted_probe.probe_encrypted_provider",
             "repro.core.classifier", "probe_encrypted_provider", SPAN),
    Boundary("core.fingerprint_probe.fingerprint",
             "repro.core.fingerprint_probe",
             "FINGERPRINTERS[ambiguity].fingerprint", SPAN),
    Boundary("store.journal.JournalWriter.append", "repro.store.journal",
             "JournalWriter.append", COUNT),
    Boundary("store.journal.JournalWriter.sync", "repro.store.journal",
             "JournalWriter.sync", SPAN),
    Boundary("campaigns.schedule.LongitudinalCampaign.epoch_fleet",
             "repro.campaigns.schedule", "LongitudinalCampaign.epoch_fleet",
             SPAN, emit=("self_ms",)),
    Boundary("campaigns.aggregate.StoreAggregator.refresh",
             "repro.campaigns.aggregate", "StoreAggregator.refresh", SPAN,
             observe=_count_entries),
    Boundary("store.journal.read_journal_tail", "repro.campaigns.aggregate",
             "read_journal_tail", SPAN, emit=("self_ms",)),
    Boundary("campaigns.aggregate.load_epoch_page", "repro.serve.app",
             "load_epoch_page", SPAN, emit=("self_ms",)),
    Boundary("store.journal.read_journal", "repro.campaigns.aggregate",
             "read_journal", SPAN, emit=("self_ms",)),
    Boundary("campaigns.aggregate.StoreAggregator.trend",
             "repro.campaigns.aggregate", "StoreAggregator.trend", SPAN,
             emit=("self_ms",)),
    Boundary("campaigns.aggregate.StoreAggregator.epoch_table",
             "repro.campaigns.aggregate", "StoreAggregator.epoch_table", SPAN,
             emit=("self_ms",)),
    Boundary("serve.app.do_GET", "repro.serve.app", "_StoreRequestHandler.do_GET",
             SPAN, emit=("self_ms",), trace_id=_request_id),
)


# -- the tracer ---------------------------------------------------------------


class _ThreadState:
    """One thread's stack, statistics, spans and counters.

    A stack frame is ``[child_ns, span_id, trace_id]``; the bottom frame
    is a root that absorbs top-level durations. A COUNT frame carries its
    enclosing span's id, so spans nested under it still name their
    nearest span ancestor as parent.
    """

    __slots__ = ("stack", "stats", "spans", "counters")

    def __init__(self) -> None:
        self.stack: list = [[0, 0, None]]
        self.stats: dict[str, list[int]] = {}
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()


class _MethodProxy:
    """Stands in for a registry entry, with one method replaced."""

    def __init__(self, target, method: str, replacement: Callable) -> None:
        self._target = target
        setattr(self, method, replacement)

    def __getattr__(self, item):
        return getattr(self._target, item)


class Tracer:
    """Patches boundaries, records spans/counts, restores on uninstall."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._restore: list[Callable[[], None]] = []

    # -- recording ------------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
            return state

    def wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        """Return ``fn`` timed as ``boundary`` (no patching involved)."""
        name = boundary.name
        is_span = boundary.kind == SPAN
        trace_id_of = boundary.trace_id
        observe = boundary.observe
        clock = self.clock
        state_of = self._state
        next_id = self._ids.__next__

        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            parent = stack[-1]
            span_id = next_id() if is_span else parent[1]
            trace_id = trace_id_of(args) if trace_id_of is not None else parent[2]
            frame = [0, span_id, trace_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                stat = state.stats.get(name)
                if stat is None:
                    stat = state.stats[name] = [0, 0, 0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if is_span:
                    state.spans.append(
                        (name, start, end, span_id, parent[1], trace_id)
                    )
            if observe is not None:
                observe(state.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------------

    def install(self, boundaries=BOUNDARIES) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        try:
            for boundary in boundaries:
                self._patch(boundary)
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _patch(self, boundary: Boundary) -> None:
        module = importlib.import_module(boundary.module)
        site = boundary.site
        if "[" in site:
            registry, _, rest = site.partition("[")
            key, _, method = rest.partition("]")
            mapping = getattr(module, registry)
            original = mapping[key]
            method = method.lstrip(".")
            if method:
                replacement = _MethodProxy(
                    original, method, self.wrap(boundary, getattr(original, method))
                )
            else:
                replacement = self.wrap(boundary, original)
            mapping[key] = replacement
            self._restore.append(lambda: mapping.__setitem__(key, original))
            return
        *path, attr = site.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part)
        # The raw descriptor where it is defined: patching an inherited
        # name would shadow it on the wrong class.
        original = vars(owner)[attr]
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(self.wrap(boundary, original.__func__))
        else:
            replacement = self.wrap(boundary, original)
        setattr(owner, attr, replacement)
        self._restore.append(lambda: setattr(owner, attr, original))

    # -- reading --------------------------------------------------------------

    def stats(self) -> dict[str, tuple[int, int, int]]:
        """``name -> (calls, total_ns, self_ns)`` merged over threads."""
        merged: dict[str, list[int]] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, own) in list(state.stats.items()):
                into = merged.setdefault(name, [0, 0, 0])
                into[0] += calls
                into[1] += total
                into[2] += own
        return {name: tuple(values) for name, values in merged.items()}

    def counters(self) -> Counter:
        merged: Counter = Counter()
        with self._states_lock:
            for state in self._states:
                merged.update(state.counters)
        return merged

    def spans(self) -> list[tuple]:
        with self._states_lock:
            return [span for state in self._states for span in state.spans]

    def write_spans(self, path: str, **extra) -> int:
        """Append every span to ``path`` as JSON lines; return the count."""
        spans = self.spans()
        with open(path, "a", encoding="utf-8") as handle:
            for name, start, end, span_id, parent, trace_id in spans:
                row = {
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "span": span_id,
                    "parent": parent,
                    "trace": trace_id,
                    **extra,
                }
                handle.write(json.dumps(row, separators=(",", ":")) + "\n")
        return len(spans)


# -- per-layer metrics --------------------------------------------------------

_DERIVED: tuple[tuple[str, str, str], ...] = (
    ("core.parallel.dedup_hit_ratio", "ratio", "higher"),
    ("core.study.distinct_per_s", "1/s", "higher"),
    ("atlas.scenario.reuse_ratio", "ratio", "higher"),
    ("net.sim.events", "count", "lower"),
    ("net.sim.ns_per_event", "ns", "lower"),
    *(
        (f"atlas.transport.{transport}.{stat}", "count", "lower")
        for transport in _TRANSPORT_NAMES
        for stat in ("attempts", "timeouts")
    ),
    ("campaigns.aggregate.StoreAggregator.refresh.entries", "count", "lower"),
)


def _boundary_metrics() -> list[tuple[str, str, str]]:
    seen: set = set()
    out = []
    for boundary in BOUNDARIES:
        for stat in boundary.emit:
            name = f"{boundary.name}.{stat}"
            if name in seen:
                continue
            seen.add(name)
            out.append((name, "count" if stat == "calls" else "ms", "lower"))
    return out


#: ``(name, unit, better)`` of every metric :func:`layer_metrics` returns.
TRACED_METRICS: tuple[tuple[str, str, str], ...] = (
    *_boundary_metrics(),
    *_DERIVED,
)


def layer_metrics(stats, counters) -> dict[str, float]:
    """Per-layer metrics from one traced run; 0 where no call was seen."""
    empty = (0, 0, 0)

    def calls(name: str) -> int:
        return stats.get(name, empty)[0]

    metrics: dict[str, float] = {}
    for name, _unit, _better in _boundary_metrics():
        boundary, _, stat = name.rpartition(".")
        metrics[name] = (
            calls(boundary) if stat == "calls" else stats.get(boundary, empty)[2] / 1e6
        )
    probes = counters["core.parallel.probes"]
    distinct = calls("core.study.measure_probe")
    fleet_s = stats.get("core.parallel.measure_fleet", empty)[1] / 1e9
    builds = calls("atlas.scenario.build_scenario")
    resets = calls("atlas.scenario.reset_scenario")
    events = counters["net.sim.events"]
    run_ns = stats.get("net.sim.Network.run", empty)[2]
    # Probes measured in pool workers are out of reach: no distinct
    # count, no ratio.
    metrics["core.parallel.dedup_hit_ratio"] = (
        (probes - distinct) / probes if probes and distinct else 0.0
    )
    metrics["core.study.distinct_per_s"] = distinct / fleet_s if fleet_s else 0.0
    metrics["atlas.scenario.reuse_ratio"] = (
        resets / (builds + resets) if builds + resets else 0.0
    )
    metrics["net.sim.events"] = events
    metrics["net.sim.ns_per_event"] = run_ns / events if events else 0.0
    for name, _unit, _better in _DERIVED:
        if name not in metrics:
            metrics[name] = counters[name]
    return metrics
