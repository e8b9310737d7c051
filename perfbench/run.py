"""Benchmark of the reefl federated simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload calibrated --seed 1 --seconds 40 --trace 0

Each measurement starts fresh `reefl run` processes (perfbench/child.py)
on one workload and seed until `--seconds` have passed and at least
MIN_ROUNDS rounds were timed; after each run one more process only sets up
and stops at the first round, so set-up is timed twice per run and setup_s
is the median of 10-20 set-ups. With
`--trace 0` it reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced runs and reports the per-layer metrics of
the traced ones plus the tracing overhead. Every run is checked: its
checkpoint and metrics.csv digest must match the other runs of the same
seed, and the reloaded checkpoint must evaluate to the reported final
accuracy. A failed run counts all its rounds as failed.

`final_mean_acc` is the accuracy of one full 100-round criterion-7 run at
seed QUALITY_SEED, made once per build of the sources (the first
measurement in a checkout makes it and caches it in `.bench_work/`), because
runs short enough to repeat inside a measurement do not learn above chance.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. The full result, with the environment,
sample counts and every run, is written to
`.bench_work/results/<workload>-seed<seed>-trace<0|1>.json`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from layers import layer_metrics  # noqa: E402
from spec import (  # noqa: E402
    CRITERION7, END_TO_END, MIN_ROUNDS, MOVES, PER_LAYER, QUALITY_SEED, TAIL_PERCENTILE, WORKLOADS,
)

# A measurement starts no run after MAX_MEASURE_S and kills a run still going
# at DEADLINE_S, so that it always ends inside 180 s.
MAX_MEASURE_S = 140
DEADLINE_S = 170
QUALITY_RUN = {**CRITERION7, "seed": QUALITY_SEED}
QUALITY_TIMEOUT_S = 600
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "REEFL_THREADS")


# -- inputs --------------------------------------------------------------------

PIXEL_NOISE = 0.25


def write_dataset(path: Path, overrides: dict, seed: int) -> None:
    """A REEFLDS1 dataset file drawn from ``seed``, shaped by the workload's
    config: data.per_class examples of each of model.num_classes classes,
    data.channels x data.image_size^2 pixels. Class base patterns plus pixel
    noise, quantized to uint8, in shuffled order."""
    from reefl.config import parse_config

    cfg = parse_config(None, [f"{key}={value}" for key, value in overrides.items()])
    classes, size = cfg["model.num_classes"], cfg["data.image_size"]
    shape = (cfg["data.channels"], size, size)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))
    bases = rng.uniform(0.0, 1.0, size=(classes,) + shape)
    labels = rng.permutation(np.repeat(np.arange(classes), cfg["data.per_class"]))
    noisy = bases[labels] + PIXEL_NOISE * rng.standard_normal((len(labels),) + shape)
    pixels = np.round(np.clip(noisy, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = np.array([classes, *shape, len(labels)], dtype="<i4").tobytes()
    records = b"".join(
        np.int32(label).astype("<i4").tobytes() + img.tobytes() for label, img in zip(labels, pixels)
    )
    path.write_bytes(b"REEFLDS1" + header + records)


def prepare_inputs(workload: dict, seed: int, work: Path) -> list[str]:
    """Write the workload's input files under ``work``; return its overrides."""
    overrides = {**workload, "seed": seed}
    if overrides.get("data.source") == "file":
        overrides["data.path"] = str(work / "data.reeflds")
        write_dataset(work / "data.reeflds", overrides, seed)
    return [f"{key}={value}" for key, value in overrides.items()]


# -- one run -------------------------------------------------------------------


def run_once(overrides: list[str], work: Path, index, traced: bool, timeout: float,
             reevaluate: bool = False, setup_only: bool = False) -> dict:
    out_dir = work / f"run{index}"
    shutil.rmtree(out_dir, ignore_errors=True)
    record_path = work / f"run{index}.json"
    record_path.unlink(missing_ok=True)
    job = {
        "root": str(ROOT),
        "overrides": [*overrides, f"output_dir={out_dir}"],
        "record": str(record_path),
        "spans": str(work / f"spans{index}.npz") if traced else None,
        "reevaluate": reevaluate,
        "setup_only": setup_only,
    }
    job["t0"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, stderr = proc.communicate()
    wall = time.monotonic() - job["t0"]
    if record_path.is_file():
        record = json.loads(record_path.read_text())
    else:
        record = {"ok": False, "rounds": [], "problems": [f"no record; exit {proc.returncode}: {stderr[-2000:]}"]}
    record["traced"] = traced
    record["wall_s"] = wall
    if traced and record["ok"]:
        record["layers"] = layer_metrics(job["spans"])
    shutil.rmtree(out_dir, ignore_errors=True)
    return record


# -- aggregation -----------------------------------------------------------------


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def end_to_end(runs: list[dict], setups: list[float], quality: dict) -> tuple[dict, dict]:
    """End-to-end metrics over successful untraced runs, the set-up times of
    those runs and of the set-up-only runs, and the quality run."""
    rounds = [r for run in runs for r in run["rounds"]]
    times = [end - start for start, end, *_ in rounds]
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(run["run_s"] for run in runs),
        "round_s": statistics.median(times),
        "round_s_tail": nearest_rank(times, TAIL_PERCENTILE),
        "train_samples_per_s": sum(r[3] for r in rounds) / sum(times),
        "bytes_per_round": sum(r[2] for r in rounds) / len(rounds),
        "final_mean_acc": quality["final_mean_acc"],
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
    }
    counts = {name: len(runs) for name in values}
    for name in ("round_s", "round_s_tail", "train_samples_per_s", "bytes_per_round"):
        counts[name] = len(rounds)
    counts["setup_s"] = len(setups)
    counts["final_mean_acc"] = 1
    return values, counts


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    values = {name: statistics.median(run["layers"][name] for run in traced)
              for name, _ in PER_LAYER if name != "tracing.overhead"}
    values["tracing.overhead"] = (
        statistics.median(run["run_s"] for run in traced) / statistics.median(run["run_s"] for run in untraced)
    )
    return values, {name: len(traced) for name in values}


def environment() -> dict:
    """Where the numbers were measured: code version, interpreter, BLAS, CPUs."""
    blas = {}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError):
        pass
    src_files = sorted((ROOT / "src").rglob("*.py"))
    src_digest = hashlib.sha256()
    for path in src_files:
        src_digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(ROOT),
        "src_sha256": src_digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src_files),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "machine": platform.machine(),
    }


def git_sha(root: Path):
    """HEAD's commit from the checkout's own .git, or None outside a git checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


# -- measurement -------------------------------------------------------------------


def quality(bench_dir: Path, overrides: dict = QUALITY_RUN) -> dict:
    """The run behind final_mean_acc, made once per source digest and config
    and cached under ``bench_dir``. ``fresh`` is set when it ran just now."""
    key = hashlib.sha256((environment()["src_sha256"] + json.dumps(overrides, sort_keys=True)).encode())
    cache = bench_dir / f"quality-{key.hexdigest()[:16]}.json"
    if cache.is_file():
        return json.loads(cache.read_text()) | {"fresh": False}
    work = bench_dir / "quality"
    work.mkdir(parents=True, exist_ok=True)
    run = run_once([f"{k}={v}" for k, v in overrides.items()], work, 0, False, QUALITY_TIMEOUT_S, reevaluate=True)
    result = {name: run.get(name) for name in ("ok", "final_mean_acc", "wall_s", "problems")}
    result["rounds"] = int(overrides["federation.total_rounds"])
    cache.write_text(json.dumps(result))
    return result | {"fresh": True}


def measure(workload: dict, seed: int, seconds: float, trace: bool, work: Path,
            quality_run: dict | None, min_rounds: int = MIN_ROUNDS) -> dict:
    """Run the workload until ``seconds`` passed and ``min_rounds`` rounds were
    timed, alternating untraced and traced runs when ``trace`` is set and
    following every untraced run with a set-up-only run otherwise. The
    end-to-end metrics take final_mean_acc from ``quality_run`` (the result
    of ``quality``; traced runs do not use it)."""
    work.mkdir(parents=True, exist_ok=True)
    overrides = prepare_inputs(workload, seed, work)
    start = time.monotonic()
    runs: list[dict] = []
    setups: list[dict] = []
    while True:
        traced = trace and len(runs) % 2 == 1
        run = run_once(overrides, work, len(runs), traced, max(1.0, start + DEADLINE_S - time.monotonic()),
                       reevaluate=not runs)
        runs.append(run)
        print(f"run {len(runs)}{' traced' if traced else ''}: {'ok' if run['ok'] else 'FAILED'} "
              f"in {run['wall_s']:.2f} s", file=sys.stderr, flush=True)
        if not trace:
            setups.append(run_once(overrides, work, f"setup{len(setups)}", False,
                                   max(1.0, start + DEADLINE_S - time.monotonic()), setup_only=True))
        if trace:
            enough = len(runs) >= 2
        else:
            enough = sum(len(r["rounds"]) for r in runs if r["ok"]) >= min_rounds
        elapsed = time.monotonic() - start
        next_wall = max(r["wall_s"] for r in runs[-2:]) + (setups[-1]["wall_s"] if setups else 0.0)
        if enough and elapsed + next_wall > seconds:
            break
        if elapsed > MAX_MEASURE_S or (len(runs) >= 2 and not any(r["ok"] for r in runs)):
            break

    digests = {r.get("digest") for r in runs if r["ok"]}
    if len(digests) > 1:
        for run in runs:
            run["ok"] = False
            run.setdefault("problems", []).append(f"outputs differ between runs of one seed: {sorted(digests)}")
    rounds_per_run = int(workload["federation.total_rounds"])
    attempted = rounds_per_run * len(runs)
    failed = rounds_per_run * sum(not r["ok"] for r in runs)
    good = [r for r in runs if r["ok"]]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if trace:
        spec_list = PER_LAYER
        values, counts = per_layer(traced, untraced) if traced and untraced else ({}, {})
    else:
        spec_list = END_TO_END
        if quality_run["fresh"]:
            attempted += quality_run["rounds"]
            failed += 0 if quality_run["ok"] else quality_run["rounds"]
        setup_times = [r["setup_s"] for r in untraced + setups if r["ok"]]
        ready = untraced and quality_run["ok"] and all(r["ok"] for r in setups)
        values, counts = end_to_end(untraced, setup_times, quality_run) if ready else ({}, {})
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in spec_list}
    return {
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0 and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": counts,
        "moves": {name: MOVES[name] for name, _ in PER_LAYER} if trace else {},
        "tail_percentile": TAIL_PERCENTILE,
        "seconds": time.monotonic() - start,
        "environment": environment(),
        "quality_run": None if trace else quality_run,
        "setup_s": [r.get("setup_s") for r in setups],
        "runs": [{k: v for k, v in r.items() if k != "rounds"} | {"round_s": [e - s for s, e, *_ in r["rounds"]]}
                 for r in runs],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "reefl" / "cli.py").is_file():
        print(f"error: no reefl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    bench_dir = ROOT / ".bench_work"
    # made by the first measurement in a checkout, traced or not
    quality_run = quality(bench_dir)
    work = bench_dir / f"{args.workload}-seed{args.seed}"
    result = {"workload": args.workload} | measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work, quality_run)
    results = bench_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))

    for run in [quality_run, *result["runs"]]:
        for problem in run.get("problems") or []:
            print(f"problem: {problem}", file=sys.stderr)
    print(f"environment: {json.dumps(result['environment'])}")
    print(f"{args.workload} seed {args.seed}: {result['attempted']} rounds attempted, "
          f"{result['failed']} failed, round_s_tail is p{TAIL_PERCENTILE}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:<14.6g} {metric['unit']:10s} n={result['samples'].get(name, 0)}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
