"""Per-layer metrics of one traced `reefl run`, computed from its spans.

Self time is a span's duration minus the durations of its direct children.
All values are totals over the run's RUN phase, except
`checkpoint.load_checkpoint.incl_s`, which comes from the VERIFY phase that
reloads the written checkpoint.
"""
from __future__ import annotations

import json

import numpy as np

from tracer import BACKWARD, NUMERIC_OPS, RUN, VERIFY


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(spans_path) -> dict[str, float]:
    with np.load(spans_path) as z:
        names = json.loads(str(z["names"]))
        name, parent = z["name"], z["parent"]
        dur = z["end"] - z["start"]
        client, phase, count = z["client"], z["phase"], z["count"]

    n = len(name)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)[:n]
    self_time = dur - child_time
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    run = phase == RUN
    ids = {nm: i for i, nm in enumerate(names)}

    def is_(fname):
        return name == ids.get(fname, -1)

    def total(values, mask) -> float:
        return float(values[mask].sum())

    def calls(mask) -> int:
        return int(mask.sum())

    out: dict[str, float] = {}

    op_ids = np.array([ids[op] for op in NUMERIC_OPS if op in ids], dtype=name.dtype)
    is_op = np.isin(name, op_ids)
    for group in dict.fromkeys(NUMERIC_OPS.values()):
        mask = np.isin(name, [ids[op] for op, g in NUMERIC_OPS.items() if g == group and op in ids]) & run
        out[f"numerics.{group}.calls"] = calls(mask)
        out[f"numerics.{group}.self_s"] = total(self_time, mask)
        out[f"numerics.{group}.bytes"] = total(count, mask)
    backward = is_(BACKWARD) & run
    out["numerics.backward.calls"] = calls(backward)
    out["numerics.backward.self_s"] = total(self_time, backward)

    in_training = client >= 0
    local_train = is_("local_train") & run
    evaluate = is_("evaluate") & run
    trained, evaluated = total(count, local_train), total(count, evaluate)
    top_level_ops = is_op & ~np.isin(parent_name, op_ids) & run
    out["numerics.ops_per_sample"] = _ratio(calls(top_level_ops), trained + evaluated)

    block = is_("block_forward") & run & (parent_name != ids.get("ree_forward", -2))
    out["backbone.tokenize.self_s"] = total(self_time, is_("tokenize") & run)
    out["backbone.block_forward.calls"] = calls(block)
    out["backbone.block_forward.incl_s"] = total(dur, block)

    ree = is_("ree_forward") & run
    out["ree.ree_forward.calls"] = calls(ree)
    out["ree.ree_forward.incl_s"] = total(dur, ree)
    out["ree.queue_slots"] = total(count, ree)
    # only m[0] (classifier input) and m[-1] (modulation) of each call are used
    out["ree.useful_slot_ratio"] = _ratio(2 * calls(ree), out["ree.queue_slots"])
    out["ree.classify_exit.incl_s"] = total(dur, is_("classify_exit") & run)
    out["ree.modulate.incl_s"] = total(dur, is_("modulate") & run)

    loss = (is_("exit_ce_losses") | is_("kd_loss")) & in_training & run
    out["training.local_train.calls"] = calls(local_train)
    out["training.local_train.incl_s"] = total(dur, local_train)
    out["training.forward_s"] = total(dur, is_("forward_with_exits") & in_training & run)
    out["training.loss_s"] = total(dur, loss)
    out["training.backward_s"] = total(dur, backward & in_training)
    out["training.sgd_step.incl_s"] = total(dur, is_("sgd_step") & run)
    out["training.minibatches"] = calls(is_("forward_with_exits") & in_training & run)
    out["training.samples"] = trained

    sliced = is_("slice_submodel") & run
    comm = is_("comm_cost") & run
    out["federation.slice_submodel.calls"] = calls(sliced)
    out["federation.slice_submodel.incl_s"] = total(dur, sliced)
    out["federation.slice_useful_ratio"] = _ratio(total(count, comm), total(count, sliced))
    out["federation.aggregate.incl_s"] = total(dur, is_("aggregate") & run)
    out["federation.evaluate.incl_s"] = total(dur, evaluate)
    out["federation.eval_samples_per_s"] = _ratio(evaluated, out["federation.evaluate.incl_s"])
    out["federation.comm_cost.incl_s"] = total(dur, comm)
    out["federation.run_round.self_s"] = total(self_time, is_("run_round") & run)

    for fname in ("synth_dataset", "load_dataset", "lda_partition", "split_train_test"):
        out[f"data.{fname}.incl_s"] = total(dur, is_(fname) & run)
    save = is_("save_checkpoint") & run
    out["checkpoint.save_checkpoint.incl_s"] = total(dur, save)
    out["checkpoint.bytes"] = total(count, save)
    out["checkpoint.load_checkpoint.incl_s"] = total(dur, is_("load_checkpoint") & (phase == VERIFY))
    out["config.parse_config.incl_s"] = total(dur, is_("parse_config") & run)
    return out
