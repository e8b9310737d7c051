"""Tests of the benchmark itself: inputs, emitted metrics, tracer hygiene.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

# a test-sized file-data workload
TINY = {
    "model.depth": 2, "model.dim": 8, "model.heads": 2, "model.patch_size": 4,
    "model.num_classes": 4, "schedule.every_k": 1, "train.batch_size": 4,
    "data.source": "file", "data.per_class": 6, "data.image_size": 8, "data.split_ratio": 0.5,
    "federation.num_clients": 4, "federation.sample_fraction": 1.0,
    "federation.total_rounds": 2, "federation.eval_interval": 1,
}


def _inputs(workload, seed, work: Path):
    work.mkdir(parents=True)
    overrides = bench.prepare_inputs(workload, seed, work)
    data = work / "data.reeflds"
    return [o for o in overrides if not o.startswith("data.path=")], data.read_bytes() if data.exists() else b""


def test_same_seed_reproduces_inputs_and_another_seed_changes_them(tmp_path):
    for name, workload in WORKLOADS.items():
        first = _inputs(workload, 7, tmp_path / f"{name}-a")
        again = _inputs(workload, 7, tmp_path / f"{name}-b")
        other = _inputs(workload, 8, tmp_path / f"{name}-c")
        assert first == again
        assert first[0] != other[0]  # the seed is the config seed
        assert "seed=7" in first[0]
        if workload.get("data.source") == "file":
            assert first[1] != other[1]


def test_dataset_file_is_readable_by_reefl(tmp_path):
    from reefl.data import load_dataset

    workload = WORKLOADS["eval_heavy"]
    bench.write_dataset(tmp_path / "d", {**workload, "data.path": str(tmp_path / "d")}, 3)
    examples = load_dataset(tmp_path / "d")
    assert len(examples) == workload["model.num_classes"] * workload["data.per_class"]
    assert examples[0].image.shape == (1, workload["data.image_size"], workload["data.image_size"])
    assert sorted({ex.label for ex in examples}) == list(range(workload["model.num_classes"]))


def _assert_emitted(result, specs):
    assert result["correct"], [r.get("problems") for r in result["runs"]]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in specs]
    for name, unit in specs:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name


def test_every_end_to_end_metric_is_emitted_with_its_unit(tmp_path):
    quality_run = {**TINY, "data.source": "synthetic", "seed": 1}
    quality = bench.quality(tmp_path / "bench", quality_run)
    assert quality["ok"] and quality["fresh"], quality["problems"]
    result = bench.measure(TINY, 0, 0.0, False, tmp_path / "work", quality, min_rounds=4)
    _assert_emitted(result, END_TO_END)
    assert all(result["metrics"][name]["value"] > 0 for name, _ in END_TO_END if name != "final_mean_acc")
    assert result["metrics"]["final_mean_acc"]["value"] == quality["final_mean_acc"]
    assert result["samples"]["round_s"] >= 4
    assert result["samples"]["setup_s"] == 2 * len(result["runs"])
    assert result["attempted"] == 2 * len(result["runs"]) + 2  # the fresh quality run's rounds count too
    again = bench.quality(tmp_path / "bench", quality_run)
    assert not again["fresh"] and again["final_mean_acc"] == quality["final_mean_acc"]


def test_every_per_layer_metric_is_emitted_with_its_unit(tmp_path):
    result = bench.measure(TINY, 0, 0.0, True, tmp_path, None)
    _assert_emitted(result, PER_LAYER)
    assert [r["traced"] for r in result["runs"]] == [False, True]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["training.samples"] > 0 and values["numerics.matmul.calls"] > 0
    assert values["checkpoint.load_checkpoint.incl_s"] > 0


def _bindings():
    from reefl.numerics import Tensor

    found = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "reefl" or name.startswith("reefl.")
        for attr, value in vars(module).items()
        if callable(value)
    }
    found[("Tensor", "backward")] = Tensor.backward
    return found


def test_traced_run_restores_every_patched_binding(tmp_path):
    from reefl import backbone, cli, ree
    from reefl.numerics import tensor

    overrides = bench.prepare_inputs(TINY, 0, tmp_path)
    before = _bindings()
    tracer = Tracer()
    patched = tracer.install()
    try:
        assert len(patched) > sum(len(names) for names in TARGETS.values())
        assert backbone.matmul is not before[("reefl.backbone", "matmul")]
        assert ree.matmul is not before[("reefl.ree", "matmul")]
        assert tensor.Tensor.backward is not before[("Tensor", "backward")]
        code = cli.main(["run", *(f"--{o}" for o in overrides), f"--output_dir={tmp_path / 'out'}"])
    finally:
        tracer.uninstall()
    assert code == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    tracer.save(tmp_path / "spans.npz")
    metrics = layer_metrics(tmp_path / "spans.npz")
    assert metrics["training.local_train.calls"] == 2 * 4


def test_tail_percentile_leaves_ten_rounds_beyond_it():
    times = [float(i) for i in range(bench.MIN_ROUNDS)]
    tail = bench.nearest_rank(times, bench.TAIL_PERCENTILE)
    assert sum(t > tail for t in times) == 10


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calibrated", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
