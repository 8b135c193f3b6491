"""The benchmark's workloads, each run in a fresh interpreter.

``run.py`` starts ``python -m benchmarks.perf.workloads '<json spec>'``
once per repetition, so every study is timed cold, the way ``repro
study`` runs, and set-up is sampled once per process. The child prints
one JSON line with its raw measurements; ``run.py`` turns them into
metrics.

Why these four workloads:

- ``paper-fleet`` is the paper's 9,800-probe pilot. Only ~2% of probes
  are intercepted and probe dedup serves ~89% of them, so the executor's
  dedup and the scenario cache do most of the work.
- ``chaos-fleet`` runs 1,000 probes over impaired links with retries.
  Impairment and retry switch dedup and the answer-template caches off:
  every probe is a full packet-level simulation. A dedup gain should
  show no change here.
- ``axes-dense`` runs 800 probes with dense interceptors and every
  extra pass on (cert detector, fingerprint, DoH evasion), so the
  forwarder, middlebox and encrypted-transport handlers do real work.
- ``campaign-serve`` runs ``scenarios/firmware-rollout.json`` into a
  store (journal append + fsync + incremental fold per epoch, two pool
  workers), then serves it over loopback to one closed-loop client. It
  is the only workload that writes and reads the journal.
"""

import time

#: Set-up is timed from here, before anything of the program is imported.
_STARTED = time.perf_counter()

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from benchmarks.perf.speed import SpeedGauge  # noqa: E402
from benchmarks.perf.trace import (  # noqa: E402
    REQUEST_ID_HEADER,
    SPAN,
    Boundary,
    Tracer,
    layer_metrics,
)

ROOT = Path(__file__).resolve().parents[2]

STUDY_WORKLOADS = ("paper-fleet", "chaos-fleet", "axes-dense")
WORKLOADS = STUDY_WORKLOADS + ("campaign-serve",)

#: Fleet sizes: ~3-8 s per study on a 2-vCPU Xeon VM at 2.0 GHz.
STUDY_SIZES = {"paper-fleet": 9800, "chaos-fleet": 1000, "axes-dense": 800}

#: Interceptor densities of scenarios/fingerprint-survey.json.
AXES_DENSE_POPULATION = {"cpe_true_count": 1800, "isp_all_four": 1000, "ext_all_four": 400}

CAMPAIGN_SCENARIO = ROOT / "scenarios" / "firmware-rollout.json"
CAMPAIGN_WORKERS = 2
#: Campaigns per run, each into a fresh store. Each epoch's time is its
#: median over the campaigns, which a burst of machine slowness during
#: one of them does not move.
CAMPAIGN_RUNS = 3

#: Kernel samples taken together where the speed gauge gets no chance to
#: sample during a timed step: after set-up, and on each CPU between
#: campaign epochs.
BURST_SAMPLES = 3

#: Probes whose fast-engine records are re-measured on the reference
#: engine (untimed) in the first repetition of every study.
CHECK_PROBES = 200

#: campaign-serve sends the first PASS_REQUESTS requests of its seeded
#: sequence in passes, at least MIN_PASSES of them (1,050 requests) and
#: more while the run has time left; request i's latency is its median
#: over the passes. The 95th percentile of 350 has 17 requests beyond it.
PASS_REQUESTS = 350
MIN_PASSES = 3

#: The request mix, requests per endpoint in every block of ten, served
#: in a seeded order. It is assumed, not observed: no client of ``repro
#: serve`` records its traffic. A dashboard polling the trend, opening
#: epochs, paging probes now and then and rarely re-reading the manifest
#: is the use it stands for. The endpoints answer in separate latency
#: bands, so per-endpoint medians are reported in the traced run too.
REQUEST_MIX = (("trend", 4), ("epoch", 3), ("probes", 2), ("manifest", 1))
PAGE_LIMIT = 50
PAGE_OFFSETS = 4


# -- inputs -----------------------------------------------------------------------


def study_inputs(workload: str, seed: int, size=None):
    """``(specs, StudyConfig)`` of a study workload, from the seed alone."""
    from repro.atlas.population import PopulationConfig, generate_population
    from repro.core.study import StudyConfig

    size = size or STUDY_SIZES[workload]
    if workload == "paper-fleet":
        return generate_population(size, seed), StudyConfig(workers=1, seed=seed)
    if workload == "chaos-fleet":
        from repro.atlas.retry import ExponentialBackoffRetry
        from repro.net.impairment import impairment_profile

        # As `repro study --impair residential` builds it.
        config = StudyConfig(
            workers=1,
            seed=seed,
            impairment=impairment_profile("residential"),
            impairment_seed=seed,
            retry=ExponentialBackoffRetry(retries=5, seed=seed),
        )
        return generate_population(size, seed), config
    if workload == "axes-dense":
        population = PopulationConfig(size=size, seed=seed, **AXES_DENSE_POPULATION)
        config = StudyConfig(
            workers=1,
            seed=seed,
            detector="both",
            fingerprint=True,
            transport="doh",
            evasion=True,
        )
        return generate_population(config=population), config
    raise ValueError(f"not a study workload: {workload!r}")


def campaign_bundle(seed: int, size=None):
    """The firmware-rollout scenario with its seed replaced."""
    from repro.campaigns.catalog import bundle_from_dict

    data = json.loads(CAMPAIGN_SCENARIO.read_text(encoding="utf-8"))
    data["population"]["seed"] = seed
    if size is not None:
        data["population"]["size"] = size
    return bundle_from_dict(data, where=str(CAMPAIGN_SCENARIO))


def request_paths(seed: int, epochs: int, count: int) -> list[tuple[str, str]]:
    """The seeded ``(endpoint, path)`` sequence of campaign-serve."""
    rng = random.Random(seed)
    block = [name for name, share in REQUEST_MIX for _ in range(share)]
    paths = []
    while len(paths) < count:
        rng.shuffle(block)
        for endpoint in block:
            if endpoint == "trend":
                path = "/trend"
            elif endpoint == "epoch":
                path = f"/epochs/{rng.randrange(epochs)}"
            elif endpoint == "probes":
                epoch = rng.randrange(epochs)
                offset = rng.randrange(PAGE_OFFSETS) * PAGE_LIMIT
                path = f"/probes?epoch={epoch}&offset={offset}&limit={PAGE_LIMIT}"
            else:
                path = "/manifest"
            paths.append((endpoint, path))
    return paths[:count]


# -- checks -----------------------------------------------------------------------


def records_digest(records) -> str:
    from repro.analysis.export import record_to_dict

    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(record_to_dict(record), sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def journal_digest(store_path: str) -> str:
    from repro.store import JOURNAL_DIR

    digest = hashlib.sha256()
    journal = Path(store_path) / JOURNAL_DIR
    for shard in sorted(journal.glob("*.jsonl")):
        digest.update(shard.read_bytes())
    return digest.hexdigest()


def count_mismatches(records, reference) -> int:
    """Records that differ from the reference engine's, position by
    position; a missing record counts as a mismatch."""
    paired = sum(1 for ours, theirs in zip(records, reference) if ours != theirs)
    return paired + abs(len(records) - len(reference))


def expected_bodies(store_path: str, epochs: int) -> dict[str, bytes]:
    """Every body campaign-serve can request, computed offline."""
    from repro.campaigns.aggregate import StoreAggregator, canonical_json, load_epoch_page
    from repro.store import load_manifest

    offline = StoreAggregator(store_path, persist=False)
    offline.refresh()
    bodies = {
        "/trend": canonical_json(offline.trend()),
        "/manifest": canonical_json(load_manifest(store_path)),
    }
    for epoch in range(epochs):
        bodies[f"/epochs/{epoch}"] = canonical_json(offline.epoch_table(epoch))
        for page in range(PAGE_OFFSETS):
            offset = page * PAGE_LIMIT
            path = f"/probes?epoch={epoch}&offset={offset}&limit={PAGE_LIMIT}"
            bodies[path] = canonical_json(
                load_epoch_page(store_path, epoch, offset, PAGE_LIMIT)
            )
    return {path: body.encode("utf-8") for path, body in bodies.items()}


# -- children ---------------------------------------------------------------------


def peak_rss_mb() -> float:
    """High-water RSS of this process or any child it waited for."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def _write_spans(tracer, spec: dict, **extra) -> int:
    if spec.get("spans"):
        return tracer.write_spans(spec["spans"], workload=spec["workload"], **extra)
    return len(tracer.spans())


@contextlib.contextmanager
def one_cpu():
    """Keep this process on one CPU inside the block.

    The two vCPUs change speed independently, second by second. Work done
    by one thread at a time (a study; the client and server threads,
    which take turns) then runs on the CPU the speed gauge times.
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    if cpus:
        os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)


def sample_every_cpu(gauge) -> float:
    """Sample the gauge in a burst on each CPU in turn; return where the
    next timed step starts. Pool workers run on all of them at once."""
    if not hasattr(os, "sched_getaffinity"):
        return gauge.sample(BURST_SAMPLES)
    cpus = os.sched_getaffinity(0)
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            gauge.sample(BURST_SAMPLES)
    finally:
        os.sched_setaffinity(0, cpus)
    return time.perf_counter()


def setup_times(started: float, inputs_start: float, ready: float, gauge) -> dict:
    """Set-up from process start to ``ready``, at the reference speed."""
    gauge.sample(BURST_SAMPLES)
    scale = gauge.scale(ready, ready)
    return {
        "setup_s": (ready - started) * scale,
        "import_ms": (inputs_start - started) * 1e3 * scale,
        "inputs_ms": (ready - inputs_start) * 1e3 * scale,
    }


def study_rep(spec: dict, started: float) -> dict:
    """One repetition of a study workload: set up, time the study, check.

    Each probe is timed from the previous probe's progress callback to
    its own, at the reference speed (``speed.SpeedGauge``); the gauge
    samples inside the callbacks, outside every probe's time.
    """
    from repro.core.study import run_pilot_study

    inputs_start = time.perf_counter()
    specs, config = study_inputs(spec["workload"], spec["seed"], spec.get("size"))
    ready = time.perf_counter()
    gauge = SpeedGauge()
    out = setup_times(started, inputs_start, ready, gauge)

    tracer = Tracer().install() if spec["trace"] else None
    steps: list[tuple[float, float]] = []
    with one_cpu():
        resume = [gauge.sample()]
        start = resume[0]

        def progress(_done: int, _total: int) -> None:
            steps.append((resume[0], time.perf_counter()))
            resume[0] = gauge.poll()

        try:
            study = run_pilot_study(specs, config, progress=progress)
        finally:
            if tracer is not None:
                tracer.uninstall()
        end = time.perf_counter()
        gauge.sample()
    out.update({
        "study_s": end - start,
        "probes": len(specs),
        "latencies_ms": [gauge.scaled_ms(begin, after) for begin, after in steps],
        "tail_ms": gauge.scaled_ms(resume[0], end),
        "rss_mb": peak_rss_mb(),
        "records_sha256": records_digest(study.records),
        "check_failed": 0,
    })
    if spec.get("check"):
        head = specs[:CHECK_PROBES]
        reference = run_pilot_study(
            head, dataclasses.replace(config, engine="reference")
        ).records
        out["check_failed"] = count_mismatches(study.records[: len(head)], reference)
    if tracer is not None:
        out["layers"] = layer_metrics(tracer.stats(), tracer.counters())
        out["spans"] = _write_spans(tracer, spec, rep=spec.get("rep", 0))
    return out


def campaign_setup(spec: dict, started: float):
    from repro.campaigns import LongitudinalCampaign

    inputs_start = time.perf_counter()
    campaign = LongitudinalCampaign(campaign_bundle(spec["seed"], spec.get("size")))
    ready = time.perf_counter()
    gauge = SpeedGauge()
    return campaign, gauge, setup_times(started, inputs_start, ready, gauge)


def setup_only(spec: dict, started: float) -> dict:
    """A campaign-serve set-up sample, with nothing measured after it."""
    return campaign_setup(spec, started)[2]


def _get(host: str, port: int, path: str, number: int):
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", path, headers={REQUEST_ID_HEADER: str(number)})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def serve_pass(get, host: str, port: int, sequence, bodies, first: int, gauge):
    """Send every request of ``sequence`` in turn, numbered from
    ``first``; return each one's milliseconds at the reference speed and
    how many failed (a non-200 reply or a body unlike the offline one)."""
    steps: list[tuple[float, float]] = []
    failed = 0
    for number, (_endpoint, path) in enumerate(sequence, first):
        begin = gauge.poll()
        try:
            status, body = get(host, port, path, number)
        except (OSError, http.client.HTTPException):
            status, body = None, b""
        steps.append((begin, time.perf_counter()))
        if status != 200 or body != bodies[path]:
            failed += 1
    gauge.sample()
    return [gauge.scaled_ms(begin, end) for begin, end in steps], failed


def run_campaign(campaign, store_path: str, tracer, gauge) -> tuple[list[float], int]:
    """Measure every epoch into the store, folding tables after each one
    as ``repro campaign run`` does; return per-epoch seconds at the
    reference speed and how many probes failed the checks."""
    from repro.campaigns import StoreAggregator
    from repro.campaigns.aggregate import canonical_json
    from repro.store import ResultStore

    if tracer is not None:
        tracer.install()
    try:
        store = ResultStore(store_path)
        aggregator = StoreAggregator(store_path, persist=True)
        steps: list[tuple[float, float]] = []
        resume = [sample_every_cpu(gauge)]

        # The gauge samples between epochs only: the pool gives no
        # earlier hook, and an epoch lasts well under a phase.
        def epoch_done(_epoch: int) -> None:
            aggregator.refresh()
            steps.append((resume[0], time.perf_counter()))
            resume[0] = sample_every_cpu(gauge)

        measured = campaign.run(
            store=store, workers=CAMPAIGN_WORKERS, epoch_done=epoch_done
        )
        aggregator.refresh()
    finally:
        if tracer is not None:
            tracer.uninstall()
    # The journal holds every epoch's records, and the tables folded
    # incrementally equal a fresh full rescan.
    sizes = campaign.epoch_sizes()
    offline = StoreAggregator(store_path, persist=False)
    offline.refresh()
    trend = (Path(store_path) / "tables" / "trend.json").read_text(encoding="utf-8")
    ok = [len(measured.get(e, ())) for e in range(len(sizes))] == sizes
    ok = ok and trend == canonical_json(offline.trend())
    epoch_s = [gauge.scaled_ms(begin, end) / 1e3 for begin, end in steps]
    return epoch_s, 0 if ok else sum(sizes)


def campaign_serve(spec: dict, started: float) -> dict:
    """Run the campaign into fresh stores, then serve the last one to one
    closed-loop client in passes over the same request sequence.

    Untraced, passes continue until ``seconds`` have passed since the
    first campaign started. Traced, MIN_PASSES traced passes alternate
    with as many untraced ones: the traced passes are a fixed amount of
    work for the layer totals, the untraced ones the baseline for the
    tracer's serving overhead.
    """
    from repro.campaigns import LongitudinalCampaign
    from repro.serve import StoreServer

    campaign, gauge, out = campaign_setup(spec, started)
    epochs = campaign.schedule.epochs
    sizes = campaign.epoch_sizes()
    tracer = Tracer() if spec["trace"] else None
    clock = time.perf_counter
    measure_start = clock()
    epoch_s: list[list[float]] = []
    journals: list[str] = []
    campaign_failed = 0
    for index in range(CAMPAIGN_RUNS):
        if index:
            campaign = LongitudinalCampaign(campaign.bundle)  # cold fleet cache
        store_path = tempfile.mkdtemp(prefix="store-", dir=spec["workdir"])
        # Only the first campaign is traced: the layer totals are one
        # campaign's work.
        times, failed = run_campaign(
            campaign, store_path, None if index else tracer, gauge
        )
        epoch_s.append(times)
        campaign_failed += failed
        journals.append(journal_digest(store_path))
    if len(set(journals)) != 1:  # every campaign must journal the same bytes
        campaign_failed = sum(sizes) * CAMPAIGN_RUNS
    bodies = expected_bodies(store_path, epochs)
    # Serve with only the server's state left behind, as `repro serve`
    # would run in its own process.
    del campaign
    gc.collect()

    sequence = request_paths(spec["seed"], epochs, spec.get("requests", PASS_REQUESTS))
    untraced_ms: list[list[float]] = []
    traced_ms: list[list[float]] = []
    failed_requests = 0
    if tracer is not None:
        traced_get = tracer.wrap(
            Boundary("serve.request", __name__, "_get", SPAN,
                     trace_id=lambda args: args[3]),
            _get,
        )
    # Threads inherit the affinity of the thread that starts them.
    with one_cpu(), contextlib.closing(StoreServer(store_path).start()) as server:
        host, port = server.address
        while True:
            if tracer is None:
                if len(untraced_ms) >= MIN_PASSES and (
                    clock() - measure_start >= spec["seconds"]
                ):
                    break
                traced = False
            else:
                if len(traced_ms) >= MIN_PASSES:
                    break
                traced = len(untraced_ms) > len(traced_ms)
                if traced:
                    tracer.install()
            first = len(sequence) * (len(untraced_ms) + len(traced_ms))
            try:
                elapsed, failed = serve_pass(
                    traced_get if traced else _get, host, port, sequence, bodies,
                    first, gauge,
                )
            finally:
                if traced:
                    tracer.uninstall()
            (traced_ms if traced else untraced_ms).append(elapsed)
            failed_requests += failed

    out.update(
        {
            "epoch_s": epoch_s,
            "epoch_sizes": sizes,
            "endpoints": [endpoint for endpoint, _path in sequence],
            "latencies_ms": untraced_ms,
            "traced_ms": traced_ms,
            "rss_mb": peak_rss_mb(),
            "campaign_failed": campaign_failed,
            "failed_requests": failed_requests,
            "journal_sha256": journals[-1],
        }
    )
    if tracer is not None:
        out["layers"] = layer_metrics(tracer.stats(), tracer.counters())
        out["spans"] = _write_spans(tracer, spec)
    return out


ROLES = {"study": study_rep, "setup": setup_only, "campaign": campaign_serve}


def run_child(spec: dict, started: float) -> dict:
    return ROLES[spec["role"]](spec, started)


if __name__ == "__main__":
    print(json.dumps(run_child(json.loads(sys.argv[1]), _STARTED)))
