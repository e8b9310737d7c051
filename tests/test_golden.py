"""Golden digests of whole runs: the bits of every benchmark workload.

Each case runs one benchmark workload at seed 1 through ``reefl run``, with
the overrides of ``perfbench/spec.py`` and the inputs that
``perfbench/run.py`` writes, and pins the sha256 of its ``metrics.csv`` and
``checkpoint.ckpt``. A change that must leave the outputs bit-identical
keeps these digests. A change that moves bits updates them, logs the update
in CHANGES.md and reruns the acceptance suite (``-m slow``).
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(BENCH)]

import run as bench  # noqa: E402
from spec import WORKLOADS  # noqa: E402

from reefl.cli import main  # noqa: E402

SEED = 1

# workload -> (sha256 of metrics.csv, sha256 of checkpoint.ckpt)
GOLDEN = {
    "calibrated": (
        "576ec253a86fcee8462cd48d7883e32885a97f552e426b90610f3bb0fc1e22c8",
        "aee25c450dd77e5f9e09c1e2e19b94b963561ebfee133ef0393a7176dd23e9cc",
    ),
    "cross_silo": (
        "6bb4e6fff56b7fea3eee922447f1953fef7ff9e2a156eb08286b6b0c3c9820b0",
        "20d7ec593f87cce2b2bb06edc52e4f145108d3fd575feed8b7526cd3ee2825eb",
    ),
    "eval_heavy": (
        "b0675e5593a1971a31e86c4779d4b9d42e844e89c4a889387a6e11cad915c51f",
        "b26633ff7631308c782d3c90d81d5aac9114fb93bc9a7b6f921343fe7b49d270",
    ),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_workload_outputs_match_golden_digests(tmp_path, name):
    overrides = bench.prepare_inputs(WORKLOADS[name], SEED, tmp_path)
    out = tmp_path / "out"
    assert main(["run", *(f"--{o}" for o in overrides), f"--output_dir={out}"]) == 0
    assert (_sha256(out / "metrics.csv"), _sha256(out / "checkpoint.ckpt")) == GOLDEN[name]
