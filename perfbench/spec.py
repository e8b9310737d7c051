"""Workloads and metric definitions of the reefl benchmark.

Metric names and units and each workload's reason live in `BENCHMARK.json`
at the repository root; this module loads them and adds what that file
cannot hold: the `reefl run` overrides of every workload and, for every
per-layer metric, the end-to-end metric it should move and on which
workloads. Every workload is driven through `reefl run` with key=value
overrides only.
"""
from __future__ import annotations

import json
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]

# round_s_tail is the p66 round time; a measurement keeps starting runs until
# it holds at least MIN_ROUNDS rounds, so that ten rounds lie beyond p66.
TAIL_PERCENTILE = 66
MIN_ROUNDS = 30

# The criterion-7 configuration of the acceptance suite: L=8, d=16, 20
# clients at full participation, 150 examples per class, 80% train (~24
# training examples, one minibatch, per client). A full run is 100 rounds.
CRITERION7 = {
    "model.depth": 8, "model.dim": 16, "model.heads": 4, "model.patch_size": 4,
    "model.num_classes": 4, "schedule.every_k": 2, "train.lr0": 0.02,
    "data.num_classes": 4, "data.per_class": 150, "data.image_size": 16,
    "data.noise": 0.35, "data.alpha": 1.0,
    "federation.num_clients": 20, "federation.sample_fraction": 1.0,
    "federation.total_rounds": 100, "federation.eval_interval": 20,
}

# final_mean_acc comes from one full criterion-7 run at this seed per build:
# the model stays at chance for the first ~40 rounds, so no run short enough
# to repeat inside a measurement says anything about quality.
QUALITY_SEED = 0

WORKLOADS = {
    # criterion 7 cut to 8 rounds, evaluated once at the end
    "calibrated": {**CRITERION7, "federation.total_rounds": 8, "federation.eval_interval": 8},
    # One client per budget 2/4/6/8 at d=64 on 32x32 images (65 tokens), so
    # every op works on large arrays. 32 examples per client: 8 train in two
    # minibatches of 4, 24 test, which keeps a round near half a second.
    "cross_silo": {
        "model.depth": 8, "model.dim": 64, "model.heads": 4, "model.patch_size": 4,
        "model.num_classes": 4, "schedule.every_k": 2,
        "data.num_classes": 4, "data.per_class": 32, "data.image_size": 32,
        "data.alpha": 100.0, "data.split_ratio": 0.25, "train.batch_size": 4,
        "federation.num_clients": 4, "federation.sample_fraction": 1.0,
        "federation.total_rounds": 8, "federation.eval_interval": 8,
    },
    # Frozen mode at depth 12 (exits every 3), 40 skewed clients at 10%
    # participation, half of every client's data held out and evaluated each
    # round. The data comes from a dataset file written from the seed, with
    # data.per_class examples of each of model.num_classes classes.
    "eval_heavy": {
        "train.mode": "frozen", "model.depth": 12, "model.dim": 32, "model.heads": 4,
        "model.patch_size": 4, "model.num_classes": 4, "schedule.every_k": 3,
        "data.source": "file", "data.per_class": 120, "data.image_size": 12,
        "data.alpha": 0.3, "data.split_ratio": 0.5,
        "federation.num_clients": 40, "federation.sample_fraction": 0.1,
        "federation.total_rounds": 5, "federation.eval_interval": 1,
    },
}
assert list(WORKLOADS) == [w["name"] for w in BENCHMARK["workloads"]]

_ALL = "calibrated,cross_silo,eval_heavy"
_TRAIN = "train_samples_per_s@calibrated,cross_silo"
_OPS = ("matmul", "gelu", "softmax", "log_softmax", "layer_norm", "cross_entropy", "elementwise", "movement")


def _op_moves():
    for op in _OPS:
        moves = "round_s@cross_silo,eval_heavy" if op in ("matmul", "gelu", "softmax") else "round_s@calibrated"
        yield f"numerics.{op}.calls", "round_s@calibrated"
        yield f"numerics.{op}.self_s", moves
        yield f"numerics.{op}.bytes", moves


# per-layer metric -> the end-to-end metric it should move, and on which
# workloads. Values are per `reefl run`.
MOVES = {
    **dict(_op_moves()),
    "numerics.backward.calls": "round_s@calibrated",
    "numerics.backward.self_s": "round_s@calibrated; not eval_heavy",
    "numerics.ops_per_sample": "round_s@calibrated",
    "backbone.tokenize.self_s": f"round_s@{_ALL}",
    "backbone.block_forward.calls": f"round_s@{_ALL}",
    "backbone.block_forward.incl_s": f"round_s@{_ALL}",
    "ree.ree_forward.calls": "round_s@eval_heavy",
    "ree.ree_forward.incl_s": "round_s@eval_heavy",
    "ree.queue_slots": "round_s@eval_heavy",
    "ree.useful_slot_ratio": "round_s@eval_heavy",
    "ree.classify_exit.incl_s": "round_s@eval_heavy",
    "ree.modulate.incl_s": "round_s@eval_heavy",
    "training.local_train.calls": _TRAIN,
    "training.local_train.incl_s": _TRAIN,
    "training.forward_s": _TRAIN,
    "training.loss_s": _TRAIN,
    "training.backward_s": _TRAIN,
    "training.sgd_step.incl_s": _TRAIN,
    "training.minibatches": _TRAIN,
    "training.samples": _TRAIN,
    "federation.slice_submodel.calls": "round_s@calibrated",
    "federation.slice_submodel.incl_s": "round_s@calibrated",
    "federation.slice_useful_ratio": "round_s@calibrated,eval_heavy",
    "federation.aggregate.incl_s": "round_s@calibrated",
    "federation.evaluate.incl_s": "round_s@eval_heavy",
    "federation.eval_samples_per_s": "round_s@eval_heavy",
    "federation.comm_cost.incl_s": "round_s@calibrated",
    "federation.run_round.self_s": "round_s@calibrated,eval_heavy",
    "data.synth_dataset.incl_s": "setup_s@calibrated,cross_silo",
    "data.load_dataset.incl_s": "setup_s@eval_heavy",
    "data.lda_partition.incl_s": "setup_s@eval_heavy",
    "data.split_train_test.incl_s": "setup_s@eval_heavy",
    "checkpoint.save_checkpoint.incl_s": f"run_s@{_ALL}",
    "checkpoint.bytes": f"run_s@{_ALL}",
    "checkpoint.load_checkpoint.incl_s": f"run_s@{_ALL}",
    "config.parse_config.incl_s": f"setup_s@{_ALL}",
    "tracing.overhead": "none: traced run_s over untraced run_s",
}
