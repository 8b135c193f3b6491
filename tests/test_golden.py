"""Packet behaviour and store bytes pinned across commits.

Each ``*.metrics.json`` snapshot under ``tests/golden/`` is what
``repro study --metrics`` writes: events dispatched, link transits,
drops by reason and the per-transmission RTT histogram. Two are
60-probe studies at seed 2021, clean and impaired; the 300-probe study
at seed 7 has CPE, within-ISP and unknown-location interceptors, so the
interception paths are pinned too. Those three log every exchange, so
every probe is measured; ``study-seed7-probe`` logs one event per probe,
so dedup followers replay their leaders' snapshots. A change to how
packets are built, rewritten or forwarded that moves any event shows up
here as a diff. A change that means to move them regenerates the files
with::

    PYTHONPATH=src python -m repro study --size 60 --seed 2021 \\
        --metrics tests/golden/study-clean.metrics.json --trace exchange
    PYTHONPATH=src python -m repro study --size 60 --seed 2021 \\
        --metrics tests/golden/study-residential.metrics.json --trace exchange \\
        --impair residential
    PYTHONPATH=src python -m repro study --size 300 --seed 7 \\
        --metrics tests/golden/study-seed7.metrics.json --trace exchange
    PYTHONPATH=src python -m repro study --size 300 --seed 7 \\
        --metrics tests/golden/study-seed7-probe.metrics.json --trace probe

``store-study/`` and ``store-campaign/`` pin the result store's bytes:
the manifest and journal shards (plus the ``study.json`` export) that a
metrics-on study and the ``ci-smoke`` longitudinal campaign write. A
change to how the store journals, resumes or finalises that moves a
byte shows up here. From the repository root, regenerate them with::

    PYTHONPATH=src python -m repro study --size 60 --seed 2021 --workers 1 \\
        --metrics golden-store-study.metrics.json --store golden-store-study
    cp golden-store-study/manifest.json golden-store-study/study.json \\
        tests/golden/store-study/
    cp golden-store-study/journal/records-0000.jsonl \\
        golden-store-study/journal/metrics-0000.jsonl \\
        tests/golden/store-study/journal/
    PYTHONPATH=src python -m repro campaign run --scenario ci-smoke \\
        --workers 2 --store golden-store-campaign
    cp golden-store-campaign/manifest.json tests/golden/store-campaign/
    cp golden-store-campaign/journal/records-0000.jsonl \\
        tests/golden/store-campaign/journal/

(each into a fresh ``--store`` directory: a non-empty one needs
``--resume``).
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = Path(__file__).parent.parent / "scenarios"

SNAPSHOTS = {
    "study-clean.metrics.json": [
        "--size", "60", "--seed", "2021", "--trace", "exchange",
    ],
    "study-residential.metrics.json": [
        "--size", "60", "--seed", "2021", "--impair", "residential",
        "--trace", "exchange",
    ],
    "study-seed7.metrics.json": [
        "--size", "300", "--seed", "7", "--trace", "exchange",
    ],
    "study-seed7-probe.metrics.json": [
        "--size", "300", "--seed", "7", "--trace", "probe",
    ],
}

STORES = {
    "store-study": [
        "study", "--size", "60", "--seed", "2021", "--workers", "1",
        "--metrics", "{tmp}/metrics.json",
    ],
    "store-campaign": [
        "campaign", "run", "--scenario", "ci-smoke", "--workers", "2",
        "--dir", str(SCENARIOS),
    ],
}


@pytest.mark.parametrize("name", sorted(SNAPSHOTS))
def test_metrics_snapshot_is_byte_identical(name, tmp_path, capsys):
    produced = tmp_path / name
    argv = ["study", *SNAPSHOTS[name], "--metrics", str(produced)]
    assert main(argv) == 0
    capsys.readouterr()
    assert produced.read_text() == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(STORES))
def test_store_is_byte_identical(name, tmp_path, capsys):
    store = tmp_path / name
    argv = [arg.format(tmp=tmp_path) for arg in STORES[name]]
    assert main([*argv, "--store", str(store)]) == 0
    capsys.readouterr()
    golden = GOLDEN / name
    journal = sorted(path.name for path in (golden / "journal").iterdir())
    assert sorted(path.name for path in (store / "journal").iterdir()) == journal
    for expected in sorted(path for path in golden.rglob("*") if path.is_file()):
        relative = expected.relative_to(golden)
        assert (store / relative).read_bytes() == expected.read_bytes(), relative
