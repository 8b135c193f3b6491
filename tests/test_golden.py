"""Packet behaviour pinned across commits: canonical metrics snapshots.

Each snapshot under ``tests/golden/`` is what ``repro study --metrics``
writes for a 60-probe study at seed 2021 with the exchange-level event
log: events dispatched, link transits, drops by reason and the
per-transmission RTT histogram. A change to how packets are built,
rewritten or forwarded that moves any event shows up here as a diff.
A change that means to move them regenerates both files with::

    PYTHONPATH=src python -m repro study --size 60 --seed 2021 \\
        --metrics tests/golden/study-clean.metrics.json --trace exchange
    PYTHONPATH=src python -m repro study --size 60 --seed 2021 \\
        --metrics tests/golden/study-residential.metrics.json --trace exchange \\
        --impair residential
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"

SNAPSHOTS = {
    "study-clean.metrics.json": [],
    "study-residential.metrics.json": ["--impair", "residential"],
}


@pytest.mark.parametrize("name", sorted(SNAPSHOTS))
def test_metrics_snapshot_is_byte_identical(name, tmp_path, capsys):
    produced = tmp_path / name
    argv = ["study", "--size", "60", "--seed", "2021"]
    argv += ["--metrics", str(produced), "--trace", "exchange", *SNAPSHOTS[name]]
    assert main(argv) == 0
    capsys.readouterr()
    assert produced.read_text() == (GOLDEN / name).read_text()
