#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric, workload by workload.

    python3 benchmarks/perf/compare.py BASE_DIR NEW_DIR [--benchmark PATH]

Each directory holds JSON files written by ``run.py --out``. For every
(workload, metric) pair each side gets its median and quartiles
(``statistics.quantiles(n=4)``) and its spread, the distance between
the quartiles as a share of the median. A metric that has a bound in
BENCHMARK.json is then:

- ``better``     every NEW run reads better than every BASE run;
- ``unresolved`` either side's spread exceeds the bound, so the runs
  cannot tell a change of that size from noise;
- ``worse``      NEW's median is worse than BASE's by more than the bound;
- ``ok``         otherwise.

Per-layer metrics have no bound and get medians only. The exit status
is 1 when any metric is ``worse``.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(directory) -> dict:
    """``(workload, metric) -> {"unit", "values"}`` over every run file."""
    runs: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        for run in json.loads(path.read_text(encoding="utf-8"))["runs"]:
            for name, metric in run["metrics"].items():
                entry = runs.setdefault(
                    (run["workload"], name), {"unit": metric["unit"], "values": []}
                )
                entry["values"].append(metric["value"])
    return runs


def summarize(values) -> dict:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "spread": spread}


def verdict(base, new, better: str, bound) -> tuple:
    """``(change, verdict)``; ``change`` is the relative move of the
    median, positive when NEW is worse."""
    b, n = summarize(base), summarize(new)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (n["median"] - b["median"]) / abs(b["median"]) if b["median"] else 0.0
    if bound is None:
        return change, "-"
    if (better == "lower" and max(new) < min(base)) or (
        better == "higher" and min(new) > max(base)
    ):
        return change, "better"
    if b["spread"] > bound or n["spread"] > bound:
        return change, "unresolved"
    return change, "worse" if change > bound else "ok"


def compare(base_runs: dict, new_runs: dict, benchmark: dict) -> list[dict]:
    specs = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    rows = []
    for key in sorted(set(base_runs) & set(new_runs)):
        workload, name = key
        spec = specs.get(name)
        if spec is None:
            continue
        base, new = base_runs[key]["values"], new_runs[key]["values"]
        change, result = verdict(base, new, spec["better"], spec.get("bound"))
        rows.append(
            {
                "workload": workload,
                "metric": name,
                "unit": base_runs[key]["unit"],
                "bound": spec.get("bound"),
                "base": summarize(base),
                "new": summarize(new),
                "change": change,
                "verdict": result,
            }
        )
    return rows


def render(rows) -> str:
    lines = [
        f"{'workload':<15} {'metric':<52} {'base median [q1, q3]':>34} "
        f"{'new median [q1, q3]':>34} {'spread b/n':>13} {'worse by':>9} "
        f"{'bound':>6}  verdict"
    ]

    def cell(s) -> str:
        return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"

    for row in rows:
        bound = "-" if row["bound"] is None else f"{row['bound']:.2f}"
        spread = f"{row['base']['spread']:.3f}/{row['new']['spread']:.3f}"
        lines.append(
            f"{row['workload']:<15} {row['metric']:<52} {cell(row['base']):>34} "
            f"{cell(row['new']):>34} {spread:>13} {row['change']:>+9.3f} "
            f"{bound:>6}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
    args = parser.parse_args(argv)
    benchmark = json.loads(Path(args.benchmark).read_text(encoding="utf-8"))
    rows = compare(load_runs(args.base), load_runs(args.new), benchmark)
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
