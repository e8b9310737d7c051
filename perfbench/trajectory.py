"""Summarise benchmark results into one point of the performance trajectory.

Usage (from the repository root, after running perfbench/run.py on several
seeds of every workload, untraced and traced):

    python3 perfbench/trajectory.py perfbench/trajectory/<point>.json

It reads `.bench_work/results/*.json` and writes, per workload, the median,
quartiles and spread (IQR over median) across seeds of every end-to-end
metric, the median across seeds of every per-layer metric with the
end-to-end metric it should move, and the environment the results were
measured in.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(out: str) -> int:
    results = [json.loads(p.read_text()) for p in sorted((ROOT / ".bench_work" / "results").glob("*.json"))]
    if not results:
        print("error: no results under .bench_work/results", file=sys.stderr)
        return 1
    point = {"environment": results[0]["environment"], "tail_percentile": results[0]["tail_percentile"], "workloads": {}}
    for workload in sorted({r["workload"] for r in results}):
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            runs = sorted((r for r in results if r["workload"] == workload and r["trace"] == trace), key=lambda r: r["seed"])
            if not runs:
                continue
            metrics = runs[0]["metrics"]
            entry[key] = {
                name: {"unit": m["unit"], **({"moves": runs[0]["moves"][name]} if trace else {}),
                       **summarise([r["metrics"][name]["value"] for r in runs])}
                for name, m in metrics.items()
            }
            entry[f"{key}_seeds"] = [r["seed"] for r in runs]
            entry[f"{key}_correct"] = all(r["correct"] for r in runs)
        point["workloads"][workload] = entry
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    Path(out).write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
