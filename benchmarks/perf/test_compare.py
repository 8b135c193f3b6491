"""compare.py on synthetic run files."""

import json

from benchmarks.perf import compare

BENCHMARK = {
    "end_to_end": [
        {"name": "steady", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "slower", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "noisy", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "faster", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "calls", "unit": "count", "better": "lower"}],
}

BASE = {
    "steady": [100, 101, 99, 100, 102],
    "slower": [100, 101, 99, 100, 102],
    "noisy": [100, 130, 80, 110, 95],
    "faster": [100, 130, 80, 110, 95],
    "calls": [7, 7, 7, 7, 7],
}
NEW = {
    "steady": [101, 100, 103, 99, 100],
    "slower": [125, 124, 126, 123, 127],
    "noisy": [98, 128, 79, 112, 96],
    "faster": [140, 150, 145, 160, 155],
    "calls": [5, 5, 5, 5, 5],
}


def write_runs(directory, series):
    directory.mkdir()
    for index in range(5):
        metrics = {
            name: {"value": values[index], "unit": "x"} for name, values in series.items()
        }
        run = {"workload": "w", "metrics": metrics}
        (directory / f"run-{index}.json").write_text(json.dumps({"runs": [run]}))


def test_verdicts_follow_bounds_spreads_and_direction(tmp_path):
    write_runs(tmp_path / "base", BASE)
    write_runs(tmp_path / "new", NEW)
    rows = compare.compare(
        compare.load_runs(tmp_path / "base"), compare.load_runs(tmp_path / "new"),
        BENCHMARK,
    )
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts == {
        "steady": "ok",
        "slower": "worse",
        "noisy": "unresolved",
        "faster": "better",
        "calls": "-",
    }
    slower = next(row for row in rows if row["metric"] == "slower")
    assert slower["base"]["median"] == 100 and slower["new"]["median"] == 125
    assert abs(slower["change"] - 0.25) < 1e-12
    assert "unresolved" in compare.render(rows)


def test_main_exits_1_on_a_regression(tmp_path, capsys):
    write_runs(tmp_path / "base", BASE)
    write_runs(tmp_path / "new", NEW)
    (tmp_path / "bench.json").write_text(json.dumps(BENCHMARK))
    argv = [str(tmp_path / "base"), str(tmp_path / "new"),
            "--benchmark", str(tmp_path / "bench.json")]
    assert compare.main(argv) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main(argv[:1] + argv[:1] + argv[2:]) == 0
