"""Workload smoke tests at tiny sizes, run in this process.

They check the result schema against BENCHMARK.json, that tracing
changes no output, that every boundary a workload names sees calls, and
that a wrong output is counted as failed.
"""

import json
import re
import time
from pathlib import Path

import pytest

from benchmarks.perf import run, workloads
from benchmarks.perf.run import END_TO_END, PER_LAYER, run_workload
from benchmarks.perf.trace import TRACED_METRICS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8")
)
TINY = {"paper-fleet": 120, "chaos-fleet": 40, "axes-dense": 60, "campaign-serve": 12}
TINY_REQUESTS = 40
NAME = re.compile(r"[A-Za-z0-9_.-]+")

_MEASURE = (
    "core.parallel.measure_fleet",
    "resolvers.directory.build_default_directory",
    "core.study.measure_probe",
    "core.study.classification_to_record",
    "atlas.scenario.build_scenario",
    "atlas.scenario.reset_scenario",
    "net.sim.Network.run",
    "net.sim.Network.transmit",
    "dnswire.Message.encode",
    "dnswire.Message.decode",
    "resolvers.base.DnsServerNode.respond",
    "atlas.transport.udp53",
    "core.detector.detect_all",
)
_LOCATE = (
    "core.cpe_check.check_cpe",
    "core.isp_check.check_isp",
    "core.transparency.check_transparency",
    "interceptors.middlebox.MiddleboxRouter.forward",
)
_PASSES = (
    "core.cert_validate.classify",
    "core.encrypted_probe.probe_encrypted_provider",
    "core.fingerprint_probe.fingerprint",
)

#: Boundaries each workload exercises even at its tiny size. The codec's
#: decode memo is process-wide, so only the first study run here (paper-
#: fleet) is sure to miss it and reach ``Message.decode``.
EXERCISED = {
    "paper-fleet": _MEASURE + _LOCATE,
    "chaos-fleet": tuple(b for b in _MEASURE if b != "dnswire.Message.decode"),
    "axes-dense": _MEASURE + _LOCATE + _PASSES + (
        "cpe.forwarder.ForwarderEngine.handle_client_query",
        "atlas.transport.dot",
        "atlas.transport.doh",
    ),
    "campaign-serve": (
        "core.parallel.measure_fleet",
        "store.journal.JournalWriter.append",
        "store.journal.JournalWriter.sync",
        "campaigns.schedule.LongitudinalCampaign.epoch_fleet",
        "campaigns.aggregate.StoreAggregator.refresh",
        "store.journal.read_journal_tail",
        "campaigns.aggregate.load_epoch_page",
        "store.journal.read_journal",
        "campaigns.aggregate.StoreAggregator.trend",
        "campaigns.aggregate.StoreAggregator.epoch_table",
        "serve.app.do_GET",
    ),
}


def in_process(spec: dict) -> dict:
    """Stands in for a workload process: same work, this interpreter."""
    return json.loads(json.dumps(workloads.run_child(spec, time.perf_counter())))


def tiny_run(workload, trace, spawn=in_process):
    return run_workload(
        workload,
        seconds=0,
        seed=2021,
        trace=trace,
        spawn=spawn,
        size=TINY[workload],
        requests=TINY_REQUESTS,
    )


@pytest.fixture(scope="module")
def runs():
    # Traced first: the codec's process-wide memos are then as cold as
    # in a fresh benchmark process, so its boundaries see their calls.
    return {
        (workload, trace): tiny_run(workload, trace)
        for workload in workloads.WORKLOADS
        for trace in (True, False)
    }


def test_benchmark_json_declares_the_metrics_the_code_emits():
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]]
    assert declared == list(END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == list(PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_runs_emit_exactly_the_declared_metrics(runs, workload):
    for trace, declared in ((False, "end_to_end"), (True, "per_layer")):
        result = runs[workload, trace]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[declared]]
        for name, metric in result["metrics"].items():
            assert NAME.fullmatch(name)
            assert metric["unit"]
            assert isinstance(metric["value"], (int, float))
    for metric in runs[workload, False]["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_changes_no_output(runs, workload):
    key = "records_sha256" if workload != "campaign-serve" else "journal_sha256"
    assert runs[workload, True]["info"][key] == runs[workload, False]["info"][key]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_named_boundary_sees_calls(runs, workload):
    metrics = runs[workload, True]["metrics"]
    for boundary in EXERCISED[workload]:
        metric = metrics.get(f"{boundary}.calls") or metrics[f"{boundary}.self_ms"]
        assert metric["value"] > 0, boundary


def test_passes_and_dedup_where_the_workloads_say(runs):
    for workload in ("paper-fleet", "chaos-fleet"):
        metrics = runs[workload, True]["metrics"]
        for boundary in _PASSES:
            assert metrics[f"{boundary}.calls"]["value"] == 0, (workload, boundary)
    dedup = "core.parallel.dedup_hit_ratio"
    assert runs["paper-fleet", True]["metrics"][dedup]["value"] > 0
    assert runs["chaos-fleet", True]["metrics"][dedup]["value"] == 0


def test_campaign_stores_are_removed(runs):
    assert not list(Path(run.__file__).parent.glob(f"{run.STORE_PREFIX}*"))


def test_traced_study_alternates_with_untraced_repetitions():
    order = []

    def spawn(spec):
        order.append(spec["trace"])
        return {
            "study_s": 3.0 if spec["trace"] else 2.0,
            "probes": 10,
            "records_sha256": "same",
            "check_failed": 0,
            "latencies_ms": [2999.0 if spec["trace"] else 1999.0],
            "tail_ms": 1.0,
            "import_ms": 1.0,
            "inputs_ms": 1.0,
            "layers": {name: 1.0 for name, _unit, _better in TRACED_METRICS},
            "spans": 1,
        }

    result = run.run_study("paper-fleet", 2021, 0, True, spawn)
    assert order == [True, False] * run.MIN_REPS
    assert result["metrics"]["trace.overhead_pct"]["value"] == pytest.approx(50.0)
    assert result["attempted"] == 10 * len(order) and result["failed"] == 0


def test_a_tampered_record_counts_as_failed(monkeypatch):
    import dataclasses

    import repro.core.study as study_module

    real = study_module.run_pilot_study

    def tampered(specs, config, **kwargs):
        result = real(specs, config, **kwargs)
        if config.engine == "fast":
            first = result.records[0]
            result.records[0] = dataclasses.replace(first, asn=first.asn + 1)
        return result

    monkeypatch.setattr(study_module, "run_pilot_study", tampered)
    result = tiny_run("paper-fleet", False)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_a_wrong_served_body_counts_as_failed(monkeypatch):
    real = workloads.expected_bodies

    def tampered(store_path, epochs):
        bodies = real(store_path, epochs)
        bodies["/trend"] += b" "
        return bodies

    monkeypatch.setattr(workloads, "expected_bodies", tampered)
    result = tiny_run("campaign-serve", False)
    assert not result["correct"]
    assert result["failed"] > 0
