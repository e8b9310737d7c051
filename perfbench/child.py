"""One `reefl run` in a fresh process, timed and checked from outside.

Usage: python3 perfbench/child.py JOB_JSON

JOB_JSON holds `root` (checkout root), `overrides` (key=value config),
`t0` (CLOCK_MONOTONIC reading taken by the parent just before it started
this process), `record` (where to write the result), `spans` (for a traced
run, where to write the spans), `reevaluate` (whether to check the
reloaded checkpoint's accuracy; all runs of a seed share one checkpoint
digest, so one check covers them) and `setup_only` (stop when the first
round starts, to time set-up alone). The result records setup and run time,
per-round times, bytes and trained samples, peak RSS, the digest of the
checkpoint plus metrics.csv, and whether reloading the checkpoint and
evaluating it reproduces the final accuracy.
"""
from __future__ import annotations

import csv
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


class SetupDone(Exception):
    """Raised when the first round starts in a set-up-only run."""


def _hook_rounds(federation, rounds: list, setup_only: bool) -> None:
    run_round = federation.run_round

    def timed_round(state, round_t):
        start = time.monotonic()
        if setup_only:
            raise SetupDone(start)
        report = run_round(state, round_t)
        end = time.monotonic()
        samples = sum(len(state.clients[c].train) for c in report.sampled) * state.train_cfg.local_epochs
        rounds.append((start, end, report.bytes_up + report.bytes_down, samples))
        return report

    federation.run_round = timed_round


def _check_outputs(out_dir: Path, overrides: list, rounds: list, model, reevaluate: bool) -> dict:
    """Digest and check the outputs; with ``reevaluate``, evaluate the
    reloaded checkpoint ``model`` on the test set and compare accuracies."""
    from reefl import federation
    from reefl.config import parse_config

    ckpt = out_dir / "checkpoint.ckpt"
    metrics_csv = out_dir / "metrics.csv"
    digest = hashlib.sha256(ckpt.read_bytes() + metrics_csv.read_bytes()).hexdigest()
    with open(metrics_csv, newline="") as f:
        rows = list(csv.DictReader(f))
    cfg = parse_config(None, overrides)
    problems = []
    total, interval = cfg["federation.total_rounds"], cfg["federation.eval_interval"]
    if [int(r["round"]) for r in rows] != list(range(interval, total + 1, interval)):
        problems.append(f"metrics.csv rounds {[r['round'] for r in rows]}")
    if len(rounds) != total:
        problems.append(f"{len(rounds)} rounds run, {total} configured")
    final = rows[-1]["mean_acc"] if rows else "nan"
    if not 0.0 <= float(final) <= 1.0:
        problems.append(f"final mean accuracy {final} outside [0, 1]")

    if reevaluate:
        state = federation.build_server(cfg)
        reloaded = federation.evaluate(model, state.test_set, modulation=cfg["schedule.modulation_enabled"])
        reloaded_text = f"{float(reloaded.mean()):.6f}"
        if reloaded_text != final:
            problems.append(f"reloaded checkpoint evaluates to {reloaded_text}, run reported {final}")
    return {"digest": digest, "final_mean_acc": float(final), "problems": problems}


def run_job(job: dict) -> dict:
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    from reefl import checkpoint, cli, federation

    tracer = None
    if job.get("spans"):
        from tracer import VERIFY, Tracer

        tracer = Tracer()
        tracer.install()
    rounds: list = []
    _hook_rounds(federation, rounds, job.get("setup_only", False))
    out_dir = Path(dict(o.split("=", 1) for o in job["overrides"])["output_dir"])
    record = {"ok": False, "rounds": rounds}
    try:
        try:
            code = cli.main(["run", *(f"--{o}" for o in job["overrides"])])
        except SetupDone as done:
            return {"ok": True, "rounds": [], "setup_s": done.args[0] - job["t0"]}
        end = time.monotonic()
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if code != 0:
            record["problems"] = [f"reefl run exited with {code}"]
            return record
        record["setup_s"] = rounds[0][0] - job["t0"]
        record["run_s"] = end - job["t0"]
        if tracer is not None:
            tracer.set_phase(VERIFY)
        model = checkpoint.load_checkpoint(out_dir / "checkpoint.ckpt")
        if tracer is not None:
            tracer.uninstall()
        record.update(_check_outputs(out_dir, job["overrides"], rounds, model, job["reevaluate"]))
        record["ok"] = not record["problems"]
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.save(job["spans"])
    return record


def main() -> int:
    job = json.loads(sys.argv[1])
    try:
        record = run_job(job)
    except Exception:  # the parent counts this run's rounds as failed
        record = {"ok": False, "problems": [traceback.format_exc()], "rounds": []}
    Path(job["record"]).write_text(json.dumps(record))
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
