#!/usr/bin/env python3
"""Run the repository benchmark and print its metrics.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N]
        [--trace [0|1]] [--out PATH]

Without ``--workload`` all four workloads run in turn, each measured
for ``run_seconds`` of BENCHMARK.json (``--seconds`` is accepted for
callers that pass that value explicitly). Each workload
prints its metrics by name with their units, then the run prints one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` (the default) the metrics are the end-to-end ones; with
``--trace`` / ``--trace 1`` they are the per-layer ones of a separate
traced run. ``--out PATH`` also writes the full result, with checksums
and raw timings, as JSON; a traced run appends its spans to
``PATH`` with the suffix ``.spans.jsonl``.

Every output is checked: study records against the reference engine
and across repetitions, served bodies against the offline tables. A
failed check makes the run exit 1; a missing program (no ``src/repro``)
or a crashed child exits 2 without a result.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if sys.path and Path(sys.path[0]).resolve() == HERE:
    # Run as a script, this directory would come first on the path and
    # trace.py would shadow the standard library's ``trace``.
    sys.path[0] = str(ROOT)

from benchmarks.perf.trace import TRACED_METRICS  # noqa: E402
from benchmarks.perf.workloads import (  # noqa: E402
    REQUEST_MIX,
    STUDY_WORKLOADS,
    WORKLOADS,
)

DEFAULT_SEED = 2021
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Fresh processes per run, at least: studies repeat until the run's
#: seconds of study time are spent; campaign-serve adds set-up-only
#: processes.
MIN_REPS = 3
#: Set-up samples of campaign-serve: set-up-only processes plus the
#: measuring one. Set-up is short, so a burst of machine slowness can
#: cover a whole sample; five keep the median clear of one or two.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
#: Campaign stores go in a temporary directory with this prefix next to
#: this file, inside the checkout, so a run reads and writes nothing
#: outside it; each run removes its own.
STORE_PREFIX = ".store-"

#: ``(name, unit, better)``; bounds live in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("probes_per_s", "probes/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("setup.import_ms", "ms", "lower"),
    ("setup.inputs_ms", "ms", "lower"),
    *TRACED_METRICS,
    *((f"serve.{endpoint}.p50_ms", "ms", "lower") for endpoint, _count in REQUEST_MIX),
    ("trace.overhead_pct", "%", "lower"),
)


class ChildError(RuntimeError):
    """A workload process failed or timed out."""


def spawn_child(spec: dict) -> dict:
    """Run one workload process to completion; return its JSON output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.perf.workloads", json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        # Timeout, interrupt or SIGTERM: the child's pool workers share
        # its process group (and its output pipes), so stop the whole
        # group and wait for it.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise ChildError(f"{spec['role']} process for {spec['workload']} failed:\n{tail}")
    return json.loads(out.strip().splitlines()[-1])


def _p95(values) -> float:
    return statistics.quantiles(values, n=20)[18]


def _metric_values(names, values: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in names}


def _median_of(samples, key: str) -> float:
    return statistics.median(sample[key] for sample in samples)


def _scaled_ms(rep: dict) -> float:
    """A study repetition's time at the reference speed."""
    return sum(rep["latencies_ms"]) + rep["tail_ms"]


def per_item_medians(series) -> list[float]:
    """Each position's median over repeated sequences of the same work.

    The machine slows down in bursts lasting seconds. Position ``i`` is
    the same work in every repetition, so a burst that hits a minority of
    the repetitions at that position does not move its median.
    """
    return [statistics.median(values) for values in zip(*series)]


def run_study(workload, seed, seconds, trace, spawn, size=None, spans=None) -> dict:
    base = {"role": "study", "workload": workload, "seed": seed, "size": size,
            "spans": spans}
    reps: list[dict] = []
    # A traced run follows every traced repetition with an untraced one:
    # the pairs share the machine's phase, so the medians of the two
    # halves give the tracer's overhead.
    untraced: list[dict] = []
    measured = 0.0
    while len(reps) < MIN_REPS or measured < seconds:
        reps.append(spawn({**base, "trace": trace, "check": not reps, "rep": len(reps)}))
        measured += reps[-1]["study_s"]
        if trace:
            untraced.append(spawn({**base, "trace": False, "check": False}))
            measured += untraced[-1]["study_s"]
    runs = reps + untraced
    digest = reps[0]["records_sha256"]
    failed = reps[0]["check_failed"] + sum(
        rep["probes"] for rep in runs if rep["records_sha256"] != digest
    )
    # Per probe, in fleet order: probe i is the same work in every
    # repetition. Work after the last probe's tick is added once.
    latencies = per_item_medians(rep["latencies_ms"] for rep in reps)
    study_ms = sum(latencies) + _median_of(reps, "tail_ms")
    info = {
        "reps": len(reps),
        "records_sha256": digest,
        "study_s": [rep["study_s"] for rep in reps],
        "latency_samples": len(latencies),
    }
    if trace:
        layers = {
            name: _median_of((rep["layers"] for rep in reps), name)
            for name, _unit, _better in TRACED_METRICS
        }
        layers["setup.import_ms"] = _median_of(reps, "import_ms")
        layers["setup.inputs_ms"] = _median_of(reps, "inputs_ms")
        for endpoint, _count in REQUEST_MIX:
            layers[f"serve.{endpoint}.p50_ms"] = 0.0
        ratio = statistics.median(map(_scaled_ms, reps)) / statistics.median(
            map(_scaled_ms, untraced)
        )
        layers["trace.overhead_pct"] = (ratio - 1.0) * 100.0
        info["spans"] = sum(rep["spans"] for rep in reps)
        metrics = _metric_values(PER_LAYER, layers)
    else:
        values = {
            "setup_s": _median_of(reps, "setup_s"),
            "probes_per_s": reps[0]["probes"] / (study_ms / 1e3),
            "latency_p50_ms": statistics.median(latencies),
            "latency_p95_ms": _p95(latencies),
            "peak_rss_mb": _median_of(reps, "rss_mb"),
        }
        metrics = _metric_values(END_TO_END, values)
    return {
        "attempted": sum(rep["probes"] for rep in runs),
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }


def run_campaign(seed, seconds, trace, spawn, size=None, requests=None,
                 spans=None) -> dict:
    base = {"workload": "campaign-serve", "seed": seed, "size": size}
    setups = [spawn({**base, "role": "setup"}) for _ in range(SETUP_SAMPLES - 1)]
    spec = {**base, "role": "campaign", "seconds": seconds, "trace": trace,
            "spans": spans}
    if requests is not None:
        spec["requests"] = requests
    with tempfile.TemporaryDirectory(prefix=STORE_PREFIX, dir=HERE) as workdir:
        main = spawn({**spec, "workdir": workdir})
    setups.append(main)
    # Epoch e of every campaign, and request i of every pass over the
    # request sequence, are the same work.
    epoch_s = per_item_medians(main["epoch_s"])
    latencies = per_item_medians(main["latencies_ms"])
    info = {
        "requests": sum(len(one) for one in main["latencies_ms"] + main["traced_ms"]),
        "epoch_sizes": main["epoch_sizes"],
        "epoch_s": main["epoch_s"],
        "journal_sha256": main["journal_sha256"],
        "latency_samples": len(latencies),
    }
    if trace:
        layers = dict(main["layers"])
        layers["setup.import_ms"] = _median_of(setups, "import_ms")
        layers["setup.inputs_ms"] = _median_of(setups, "inputs_ms")
        for endpoint, _count in REQUEST_MIX:
            layers[f"serve.{endpoint}.p50_ms"] = statistics.median(
                ms for ms, name in zip(latencies, main["endpoints"]) if name == endpoint
            )
        traced = statistics.fmean(ms for one in main["traced_ms"] for ms in one)
        untraced = statistics.fmean(ms for one in main["latencies_ms"] for ms in one)
        layers["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
        info["spans"] = main["spans"]
        metrics = _metric_values(PER_LAYER, layers)
    else:
        values = {
            "setup_s": _median_of(setups, "setup_s"),
            "probes_per_s": sum(main["epoch_sizes"]) / sum(epoch_s),
            "latency_p50_ms": statistics.median(latencies),
            "latency_p95_ms": _p95(latencies),
            "peak_rss_mb": main["rss_mb"],
        }
        metrics = _metric_values(END_TO_END, values)
    return {
        "attempted": sum(main["epoch_sizes"]) * len(main["epoch_s"]) + info["requests"],
        "failed": main["campaign_failed"] + main["failed_requests"],
        "metrics": metrics,
        "info": info,
    }


def run_workload(workload, seconds, seed=DEFAULT_SEED, trace=False,
                 spawn=spawn_child, size=None, requests=None, spans=None) -> dict:
    """Run one workload for ``seconds``; return its result with metrics,
    counts and info.

    ``size`` and ``requests`` shrink the workload for the smoke tests.
    """
    if workload in STUDY_WORKLOADS:
        result = run_study(workload, seed, seconds, trace, spawn, size, spans)
    elif workload == "campaign-serve":
        result = run_campaign(seed, seconds, trace, spawn, size, requests, spans)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": result["failed"] == 0,
        **result,
    }


def report(result: dict) -> None:
    mode = "traced" if result["trace"] else "untraced"
    print(f"== {result['workload']} (seed {result['seed']}, {mode}) ==")
    for name, metric in result["metrics"].items():
        print(f"  {name:<58} {metric['value']:>14.6g} {metric['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ratio':<58} {ratio:>14.6g} ({result['failed']}/{result['attempted']})")
    for key, value in result["info"].items():
        print(f"  {key:<58} {value}")


def summary(results: list[dict]) -> dict:
    """The final JSON line; metric names gain a workload prefix when
    several workloads ran."""
    prefix = len(results) > 1
    metrics = {}
    for result in results:
        for name, metric in result["metrics"].items():
            metrics[f"{result['workload']}.{name}" if prefix else name] = metric
    return {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so spawn_child stops its child.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        benchmark = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
        args.seconds = benchmark["run_seconds"]
    spans = None
    if args.out and args.trace:
        spans = str(Path(args.out).with_suffix(".spans.jsonl"))
        Path(spans).unlink(missing_ok=True)
    results = []
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            results.append(
                run_workload(workload, args.seconds, args.seed, bool(args.trace),
                             spans=spans)
            )
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        report(result)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": results}, indent=2) + "\n",
                                  encoding="utf-8")
    print(json.dumps(summary(results)))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
