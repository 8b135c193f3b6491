"""Measurement-pipeline micro-benchmarks.

Not a paper artifact — engineering numbers for the harness itself:
per-probe classification cost (scenario build + ~20 DNS exchanges over
the simulated network), raw DNS message codec throughput,
analysis-table generation cost, serial-vs-parallel fleet throughput,
and the wall-time overhead of the metrics instrumentation layer. These
make regressions in the simulator's hot paths visible.

Run the fleet comparison directly for a report::

    PYTHONPATH=src python benchmarks/bench_pipeline_throughput.py \
        --fleet 200 --workers 4

Run the instrumentation-overhead check (asserts the metrics layer stays
under ``--max-overhead-pct`` of fleet wall time)::

    PYTHONPATH=src python benchmarks/bench_pipeline_throughput.py \
        --overhead --fleet 100 --repeats 5
"""

import argparse
import os
import statistics
import sys
import time

from repro.analysis import build_figure3, build_table4, build_table5
from repro.atlas.geo import organization_by_name
from repro.atlas.population import generate_population
from repro.atlas.probe import ProbeSpec
from repro.core.study import StudyConfig, measure_probe, run_pilot_study
from repro.cpe.firmware import xb6_profile
from repro.net.impairment import LinkProfile
from repro.dnswire import Message, QType, make_query, txt_record


def test_per_probe_classification_cost(benchmark):
    org = organization_by_name("Comcast")
    counter = [0]

    def classify_one():
        counter[0] += 1
        spec = ProbeSpec(
            probe_id=7000 + counter[0],
            organization=org,
            firmware=xb6_profile(),
        )
        return measure_probe(spec)

    result = benchmark(classify_one)
    assert result is not None
    assert result.verdict.value == "cpe"


def test_message_codec_throughput(benchmark):
    query = make_query("o-o.myaddr.l.google.com.", QType.TXT, msg_id=1)
    response = query.reply(
        answers=(txt_record("o-o.myaddr.l.google.com.", "172.253.226.35"),)
    )
    wire = response.encode()

    def roundtrip():
        return Message.decode(wire).encode()

    assert benchmark(roundtrip) == wire


def test_analysis_table_cost(benchmark):
    """Table/figure generation over study records — the consumer of
    ``ProbeRecord.status_of``, whose dict-view memo this guards."""
    specs = generate_population(size=150, seed=21)
    study = run_pilot_study(specs, StudyConfig(workers=1, seed=21))

    def build_all():
        return (
            build_table4(study).render(),
            build_table5(study).render(),
            build_figure3(study).render(),
        )

    table4, _table5, _figure3 = benchmark(build_all)
    assert "Table 4" in table4


def compare_fleet_throughput(fleet: int, seed: int, workers: int) -> dict:
    """Measure the same fleet serially and in parallel; return stats.

    Also verifies the two runs produce identical records — the
    executor's determinism guarantee, checked on every benchmark run.
    """
    specs = generate_population(size=fleet, seed=seed)

    started = time.perf_counter()
    serial = run_pilot_study(specs, StudyConfig(workers=1, seed=seed))
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel = run_pilot_study(specs, StudyConfig(workers=workers, seed=seed))
    parallel_s = time.perf_counter() - started

    if parallel.records != serial.records:
        raise AssertionError(
            "parallel records differ from serial — determinism broken"
        )
    return {
        "fleet": fleet,
        "workers": workers,
        "cores": os.cpu_count() or 1,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "serial_probes_per_s": fleet / serial_s,
        "parallel_probes_per_s": fleet / parallel_s,
        "speedup": serial_s / parallel_s,
    }


def measure_metrics_overhead(fleet: int, seed: int, repeats: int = 3) -> dict:
    """Time the same serial fleet with metrics off and on.

    With metrics off the pipeline reports into the no-op registry, so
    the "off" time *includes* every disabled instrumentation hook; the
    enabled run is a strict upper bound on what those hooks can cost.
    The off/on runs are interleaved and timed best-of-``repeats`` so
    scheduler drift on a busy machine hits both variants alike.
    """
    specs = generate_population(size=fleet, seed=seed)

    def run_once(metrics_enabled: bool) -> float:
        config = StudyConfig(workers=1, seed=seed, metrics=metrics_enabled)
        started = time.perf_counter()
        study = run_pilot_study(specs, config)
        elapsed = time.perf_counter() - started
        assert (study.metrics is not None) == metrics_enabled
        return elapsed

    run_once(False)  # warm-up: zone build, imports, branch caches
    disabled_s = min(run_once(False) for _ in range(repeats))
    enabled_s = min(run_once(True) for _ in range(repeats))
    for _ in range(repeats):
        disabled_s = min(disabled_s, run_once(False))
        enabled_s = min(enabled_s, run_once(True))
    return {
        "fleet": fleet,
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "overhead_pct": (enabled_s / disabled_s - 1.0) * 100.0,
    }


def measure_impairment_overhead(fleet: int, seed: int, repeats: int = 3) -> dict:
    """Time the same serial fleet with no impairment vs the null profile.

    The null :class:`LinkProfile` installs the per-link impairment hooks
    on every link (``transmit`` takes the impaired path) but never draws
    a single random number, so this isolates the cost of *having* the
    subsystem from the cost of *using* it. Both runs of every pair must
    also produce identical records — a null profile is behaviourally
    invisible.

    One run takes tens of milliseconds, so a best-of reading swings by
    more than the limit it is held to. The runs come instead in
    ``2 * repeats + 1`` off/on pairs whose order alternates, and the
    overhead is the median of the per-pair time ratios: drift that hits
    both runs of a pair cancels in its ratio, and no single pair moves
    the median.
    """
    specs = generate_population(size=fleet, seed=seed)

    def run_once(profile) -> "tuple[float, list]":
        config = StudyConfig(workers=1, seed=seed, impairment=profile)
        started = time.perf_counter()
        study = run_pilot_study(specs, config)
        return time.perf_counter() - started, study.records

    run_once(None)  # warm-up
    disabled, enabled, ratios = [], [], []
    for pair in range(2 * repeats + 1):
        if pair % 2 == 0:
            disabled_s, baseline = run_once(None)
            enabled_s, hooked = run_once(LinkProfile())
        else:
            enabled_s, hooked = run_once(LinkProfile())
            disabled_s, baseline = run_once(None)
        if hooked != baseline:
            raise AssertionError(
                "null impairment profile changed study records — it must be inert"
            )
        disabled.append(disabled_s)
        enabled.append(enabled_s)
        ratios.append(enabled_s / disabled_s)
    return {
        "fleet": fleet,
        "pairs": len(ratios),
        "disabled_s": statistics.median(disabled),
        "enabled_s": statistics.median(enabled),
        "overhead_pct": (statistics.median(ratios) - 1.0) * 100.0,
    }


#: Serial throughput of the pipeline before the hot-path work (integer-µs
#: event clock, zero-copy encode, scenario reuse, probe dedup), measured
#: on one core at fleet=120/seed=2021. The engines mode reports the
#: current fast engine against this constant so the speedup is tracked
#: across history, not just against today's reference engine.
PRE_PR_BASELINE_PPS = 211.9


def compare_engine_throughput(
    fleet: int, seed: int, reference_fleet: int
) -> dict:
    """Serial throughput of the fast engine vs the reference engine.

    The fast engine's amortisations (scenario reuse, answer templates,
    probe dedup) reach steady state only on realistic fleet sizes, so it
    is timed on the full ``fleet``. The reference engine's per-probe cost
    is scale-invariant (it rebuilds everything per probe), so it is timed
    on the first ``reference_fleet`` probes and reported as probes/s.
    Records for that shared prefix are verified identical — the bench
    refuses to report a speedup the equivalence contract doesn't back.
    """
    specs = generate_population(size=fleet, seed=seed)
    prefix = specs[: min(reference_fleet, fleet)]

    # Warm-up on the prefix: zone build, imports, codec caches — paid
    # once here so neither engine is charged for process cold start.
    run_pilot_study(prefix, StudyConfig(workers=1, seed=seed, engine="reference"))

    started = time.perf_counter()
    reference = run_pilot_study(
        prefix, StudyConfig(workers=1, seed=seed, engine="reference")
    )
    reference_s = time.perf_counter() - started

    started = time.perf_counter()
    fast = run_pilot_study(specs, StudyConfig(workers=1, seed=seed, engine="fast"))
    fast_s = time.perf_counter() - started

    if fast.records[: len(prefix)] != reference.records:
        raise AssertionError(
            "fast-engine records differ from reference — equivalence broken"
        )
    fast_pps = fleet / fast_s
    reference_pps = len(prefix) / reference_s
    return {
        "fleet": fleet,
        "reference_fleet": len(prefix),
        "seed": seed,
        "cores": os.cpu_count() or 1,
        "fast_s": fast_s,
        "reference_s": reference_s,
        "fast_probes_per_s": fast_pps,
        "reference_probes_per_s": reference_pps,
        "pre_pr_baseline_pps": PRE_PR_BASELINE_PPS,
        "speedup_vs_reference": fast_pps / reference_pps,
        "speedup_vs_pre_pr": fast_pps / PRE_PR_BASELINE_PPS,
        "records_identical": True,
    }


def _run_engines(args) -> int:
    import json

    stats = compare_engine_throughput(args.fleet, args.seed, args.reference_fleet)
    print(
        f"fleet={stats['fleet']} probes (reference timed on first "
        f"{stats['reference_fleet']})  serial, 1 core of {stats['cores']}"
    )
    print(
        f"reference engine : {stats['reference_s']:7.2f}s  "
        f"{stats['reference_probes_per_s']:8.1f} probes/s"
    )
    print(
        f"fast engine      : {stats['fast_s']:7.2f}s  "
        f"{stats['fast_probes_per_s']:8.1f} probes/s"
    )
    print(
        f"speedup          : {stats['speedup_vs_reference']:.2f}x vs reference, "
        f"{stats['speedup_vs_pre_pr']:.2f}x vs pre-PR baseline "
        f"({PRE_PR_BASELINE_PPS} probes/s; records verified identical)"
    )
    json_path = args.json
    if json_path is None:
        json_path = os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            os.pardir,
            "BENCH_pipeline_throughput.json",
        )
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(stats, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.normpath(json_path)}")
    if (
        args.min_probes_per_sec is not None
        and stats["fast_probes_per_s"] < args.min_probes_per_sec
    ):
        print(
            f"FAIL: fast engine {stats['fast_probes_per_s']:.1f} probes/s "
            f"below required {args.min_probes_per_sec:.1f}"
        )
        return 1
    return 0


def _run_overhead(args) -> int:
    stats = measure_metrics_overhead(args.fleet, args.seed, repeats=args.repeats)
    print(f"fleet={stats['fleet']} probes  (best of {2 * args.repeats} interleaved)")
    print(f"metrics off : {stats['disabled_s']:7.2f}s  (no-op registry)")
    print(f"metrics on  : {stats['enabled_s']:7.2f}s  (full collection)")
    print(f"overhead    : {stats['overhead_pct']:+.2f}%  "
          f"(limit {args.max_overhead_pct:.1f}%)")
    failed = False
    if stats["overhead_pct"] > args.max_overhead_pct:
        print(
            f"FAIL: instrumentation overhead {stats['overhead_pct']:.2f}% "
            f"exceeds {args.max_overhead_pct:.2f}%"
        )
        failed = True
    impair = measure_impairment_overhead(args.fleet, args.seed, repeats=args.repeats)
    print()
    print(f"median of {impair['pairs']} alternating off/on pairs")
    print(f"impairment off  : {impair['disabled_s']:7.2f}s  (fast transmit path)")
    print(f"null profile on : {impair['enabled_s']:7.2f}s  (hooks installed)")
    print(f"overhead        : {impair['overhead_pct']:+.2f}%  "
          f"(limit {args.max_overhead_pct:.1f}%, records verified identical)")
    if impair["overhead_pct"] > args.max_overhead_pct:
        print(
            f"FAIL: impairment-hook overhead {impair['overhead_pct']:.2f}% "
            f"exceeds {args.max_overhead_pct:.2f}%"
        )
        failed = True
    return 1 if failed else 0


def compare_transport_throughput(fleet: int, seed: int) -> dict:
    """Serial throughput of the study pipeline per transport axis.

    The ``udp53`` row is the plain plaintext study; each encrypted row
    runs the full evasion axis (plaintext locator *plus* the
    opportunistic encrypted retry on every intercepted probe), so its
    delta over the baseline is the marginal cost of the evasion study —
    near zero on mostly-clean fleets, since only intercepted probes pay
    for extra exchanges. Every row's records are additionally verified
    worker-invariant (1 vs 2 workers).
    """
    specs = generate_population(size=fleet, seed=seed)
    rows = []
    for transport in ("udp53", "dot", "doh", "doq"):
        evasion = transport != "udp53"
        config = StudyConfig(
            workers=1, seed=seed, transport=transport, evasion=evasion
        )
        run_pilot_study(specs, config)  # warm-up
        started = time.perf_counter()
        serial = run_pilot_study(specs, config)
        elapsed = time.perf_counter() - started
        sharded = run_pilot_study(
            specs,
            StudyConfig(
                workers=2, seed=seed, transport=transport, evasion=evasion
            ),
        )
        if sharded.records != serial.records:
            raise AssertionError(
                f"{transport}: sharded records differ from serial — "
                "determinism broken"
            )
        outcomes = sum(
            1 for r in serial.records if r.evasion_outcome is not None
        )
        rows.append(
            {
                "transport": transport,
                "evasion": evasion,
                "seconds": elapsed,
                "probes_per_s": fleet / elapsed,
                "evasion_outcomes": outcomes,
            }
        )
    return {"fleet": fleet, "seed": seed, "rows": rows}


def _run_transports(args) -> int:
    stats = compare_transport_throughput(args.fleet, args.seed)
    print(f"fleet={stats['fleet']} probes  serial, evasion axis on encrypted rows")
    baseline = stats["rows"][0]["seconds"]
    for row in stats["rows"]:
        delta = (row["seconds"] / baseline - 1.0) * 100.0
        print(
            f"{row['transport']:6s} : {row['seconds']:7.2f}s  "
            f"{row['probes_per_s']:8.1f} probes/s  "
            f"{row['evasion_outcomes']:3d} evasion outcomes  "
            f"({delta:+.1f}% vs udp53; workers 1==2 verified)"
        )
    encrypted = [row for row in stats["rows"] if row["evasion"]]
    if args.min_probes_per_sec is not None and any(
        row["probes_per_s"] < args.min_probes_per_sec for row in encrypted
    ):
        worst = min(row["probes_per_s"] for row in encrypted)
        print(
            f"FAIL: slowest evasion transport {worst:.1f} probes/s "
            f"below required {args.min_probes_per_sec:.1f}"
        )
        return 1
    return 0


def compare_detector_throughput(fleet: int, seed: int) -> dict:
    """Serial study throughput per detector axis.

    The ``heuristic`` row is the plain three-step locator study; the
    ``both`` row adds the certificate cross-validation pass (per-provider
    canaries, cert fetches, NXDOMAIN canaries) to every online probe.
    On a mostly-clean fleet the record memo dedups identical scenarios,
    so the *marginal* cost of adding the cert detector must stay small —
    the ``--detectors`` gate asserts it under 2x. The ``both`` row's
    records are additionally verified worker-invariant (1 vs 2).
    """
    specs = generate_population(size=fleet, seed=seed)
    rows = []
    for detector in ("heuristic", "both"):
        config = StudyConfig(workers=1, seed=seed, detector=detector)
        run_pilot_study(specs, config)  # warm-up
        started = time.perf_counter()
        serial = run_pilot_study(specs, config)
        elapsed = time.perf_counter() - started
        if detector == "both":
            sharded = run_pilot_study(
                specs, StudyConfig(workers=2, seed=seed, detector=detector)
            )
            if sharded.records != serial.records:
                raise AssertionError(
                    "both-detector sharded records differ from serial — "
                    "determinism broken"
                )
        flagged = sum(
            1
            for r in serial.records
            if r.cert_verdict == "intercepted"
        )
        rows.append(
            {
                "detector": detector,
                "seconds": elapsed,
                "probes_per_s": fleet / elapsed,
                "cert_flagged": flagged,
            }
        )
    return {"fleet": fleet, "seed": seed, "rows": rows}


def _run_detectors(args) -> int:
    stats = compare_detector_throughput(args.fleet, args.seed)
    heuristic, both = stats["rows"]
    ratio = both["seconds"] / heuristic["seconds"]
    print(f"fleet={stats['fleet']} probes  serial, mostly-clean fleet")
    for row in stats["rows"]:
        print(
            f"{row['detector']:9s} : {row['seconds']:7.2f}s  "
            f"{row['probes_per_s']:8.1f} probes/s  "
            f"{row['cert_flagged']:3d} cert-flagged"
        )
    print(
        f"cost ratio : {ratio:.2f}x  (limit {args.max_detector_ratio:.2f}x; "
        "both-detector workers 1==2 verified)"
    )
    if ratio > args.max_detector_ratio:
        print(
            f"FAIL: cert+heuristic study costs {ratio:.2f}x the "
            f"heuristic-only study (limit {args.max_detector_ratio:.2f}x)"
        )
        return 1
    return 0


def compare_fingerprint_throughput(fleet: int, seed: int) -> dict:
    """Serial study throughput with and without the fingerprint pass.

    The six ambiguity probes run only against probes the locator proved
    intercepted, so on a realistic (mostly-clean) fleet the marginal
    cost must stay small — the ``--fingerprint`` gate asserts it under
    2x the plain study. The fingerprint run's records are additionally
    verified worker-invariant (1 vs 2).
    """
    specs = generate_population(size=fleet, seed=seed)
    rows = []
    for fingerprint in (False, True):
        config = StudyConfig(workers=1, seed=seed, fingerprint=fingerprint)
        run_pilot_study(specs, config)  # warm-up
        started = time.perf_counter()
        serial = run_pilot_study(specs, config)
        elapsed = time.perf_counter() - started
        if fingerprint:
            sharded = run_pilot_study(
                specs, StudyConfig(workers=2, seed=seed, fingerprint=True)
            )
            if sharded.records != serial.records:
                raise AssertionError(
                    "fingerprint sharded records differ from serial — "
                    "determinism broken"
                )
        named = sum(1 for r in serial.records if r.fingerprint_software)
        rows.append(
            {
                "fingerprint": fingerprint,
                "seconds": elapsed,
                "probes_per_s": fleet / elapsed,
                "software_named": named,
            }
        )
    return {"fleet": fleet, "seed": seed, "rows": rows}


def _run_fingerprint(args) -> int:
    import json

    stats = compare_fingerprint_throughput(args.fleet, args.seed)
    plain, fingerprinted = stats["rows"]
    ratio = fingerprinted["seconds"] / plain["seconds"]
    stats["cost_ratio"] = ratio
    print(f"fleet={stats['fleet']} probes  serial, mostly-clean fleet")
    for row in stats["rows"]:
        label = "fingerprint" if row["fingerprint"] else "plain"
        print(
            f"{label:11s} : {row['seconds']:7.2f}s  "
            f"{row['probes_per_s']:8.1f} probes/s  "
            f"{row['software_named']:3d} software named"
        )
    print(
        f"cost ratio  : {ratio:.2f}x  (limit {args.max_fingerprint_ratio:.2f}x; "
        "fingerprint workers 1==2 verified)"
    )
    json_path = args.json
    if json_path is None:
        json_path = os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            os.pardir,
            "BENCH_fingerprint.json",
        )
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(stats, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.normpath(json_path)}")
    if ratio > args.max_fingerprint_ratio:
        print(
            f"FAIL: fingerprint study costs {ratio:.2f}x the plain study "
            f"(limit {args.max_fingerprint_ratio:.2f}x)"
        )
        return 1
    return 0


def _run_throughput(args) -> int:
    stats = compare_fleet_throughput(args.fleet, args.seed, args.workers)
    print(
        f"fleet={stats['fleet']} probes  workers={stats['workers']}  "
        f"(machine has {stats['cores']} cores)"
    )
    print(
        f"serial   : {stats['serial_s']:7.2f}s  "
        f"{stats['serial_probes_per_s']:8.1f} probes/s"
    )
    print(
        f"parallel : {stats['parallel_s']:7.2f}s  "
        f"{stats['parallel_probes_per_s']:8.1f} probes/s"
    )
    print(f"speedup  : {stats['speedup']:.2f}x  (records verified identical)")
    if stats["cores"] < args.workers:
        print(
            f"note: only {stats['cores']} cores available for "
            f"{args.workers} workers; speedup is bounded by cores"
        )
    if args.expect_speedup is not None and stats["speedup"] < args.expect_speedup:
        print(
            f"FAIL: speedup {stats['speedup']:.2f}x below required "
            f"{args.expect_speedup:.2f}x"
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fleet throughput / metrics overhead benchmarks"
    )
    parser.add_argument("--fleet", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--expect-speedup",
        type=float,
        default=None,
        metavar="X",
        help="exit nonzero unless parallel is at least X times faster",
    )
    parser.add_argument(
        "--overhead",
        action="store_true",
        help="measure metrics-instrumentation overhead instead of "
        "serial-vs-parallel throughput",
    )
    parser.add_argument(
        "--engines",
        action="store_true",
        help="measure fast-engine vs reference-engine serial throughput "
        "and write BENCH_pipeline_throughput.json at the repo root",
    )
    parser.add_argument(
        "--transports",
        action="store_true",
        help="measure serial study throughput per transport axis "
        "(udp53 baseline vs dot/doh/doq evasion runs)",
    )
    parser.add_argument(
        "--detectors",
        action="store_true",
        help="measure serial study throughput per detector axis "
        "(heuristic-only baseline vs the cert+heuristic agreement run)",
    )
    parser.add_argument(
        "--fingerprint",
        action="store_true",
        help="measure serial study throughput with and without the "
        "ambiguity-fingerprint pass and write BENCH_fingerprint.json",
    )
    parser.add_argument(
        "--max-fingerprint-ratio",
        type=float,
        default=2.0,
        metavar="X",
        help="--fingerprint: exit nonzero if the fingerprint study costs "
        "more than X times the plain study (default 2.0)",
    )
    parser.add_argument(
        "--max-detector-ratio",
        type=float,
        default=2.0,
        metavar="X",
        help="--detectors: exit nonzero if cert+heuristic costs more than "
        "X times the heuristic-only study (default 2.0)",
    )
    parser.add_argument(
        "--reference-fleet",
        type=int,
        default=500,
        metavar="N",
        help="--engines: probes to time the reference engine on "
        "(its per-probe cost is scale-invariant; default 500)",
    )
    parser.add_argument(
        "--min-probes-per-sec",
        type=float,
        default=None,
        metavar="PPS",
        help="--engines: exit nonzero if the fast engine falls below "
        "PPS probes/s",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="--engines: where to write the JSON report "
        "(default: BENCH_pipeline_throughput.json at the repo root)",
    )
    parser.add_argument(
        "--max-overhead-pct",
        type=float,
        default=5.0,
        metavar="PCT",
        help="--overhead: exit nonzero if enabling metrics costs more "
        "than PCT%% wall time (default 5)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="--overhead: best-of-2N interleaved timing for metrics, "
        "median ratio of 2N+1 alternating pairs for impairment (default 3)",
    )
    args = parser.parse_args(argv)

    if args.overhead:
        return _run_overhead(args)
    if args.engines:
        return _run_engines(args)
    if args.transports:
        return _run_transports(args)
    if args.detectors:
        return _run_detectors(args)
    if args.fingerprint:
        return _run_fingerprint(args)
    return _run_throughput(args)


def test_parallel_fleet_matches_serial():
    """Pool-backed execution must reproduce the serial records exactly."""
    stats = compare_fleet_throughput(fleet=24, seed=2021, workers=4)
    assert stats["speedup"] > 0  # timing sanity; equality checked inside


def test_null_impairment_profile_is_inert():
    """Hooks installed, zero draws: records must be unchanged."""
    stats = measure_impairment_overhead(fleet=20, seed=2021, repeats=0)
    assert stats["enabled_s"] > 0  # records equality checked inside


if __name__ == "__main__":
    sys.exit(main())
