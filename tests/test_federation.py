import numpy as np
import pytest

from conftest import traced_memory
from reefl.backbone import ModelConfig
from reefl.config import parse_config
from reefl.data import synth_dataset
from reefl.errors import AggregationError, BudgetError, ConfigError
from reefl.federation import (
    aggregate,
    assign_budgets,
    build_server,
    comm_cost,
    eval_batch_size,
    evaluate,
    init_global_model,
    rng_for,
    run_round,
    run_rounds,
    sample_clients,
    slice_submodel,
)
from reefl.training import MODE_FROZEN, MODE_FULL


def small_model(depth=4, dim=8, exit_blocks=(2, 4), seed=0, image=8):
    cfg = ModelConfig(depth=depth, dim=dim, heads=2, patch_size=4, num_classes=4,
                      image_size=image, image_channels=1, exit_blocks=exit_blocks)
    return init_global_model(cfg, np.random.default_rng(seed))


def cfg_overrides(**kw):
    base = {
        "model.depth": 4, "model.dim": 8, "model.heads": 2, "model.patch_size": 4,
        "schedule.exit_blocks": "2,4",
        "data.per_class": 10, "data.image_size": 8,
        "federation.num_clients": 4, "federation.sample_fraction": 1.0,
        "federation.total_rounds": 2, "federation.eval_interval": 1,
        "train.batch_size": 8,
    }
    base.update(kw)
    return parse_config(overrides=[f"{k}={v}" for k, v in base.items()])


# -- budget assignment ------------------------------------------------------


def test_assign_budgets_even():
    budgets = assign_budgets(100, (3, 6, 9, 12))
    assert len(budgets) == 100
    for block in (3, 6, 9, 12):
        assert budgets.count(block) == 25


def test_assign_budgets_one_per_exit():
    assert assign_budgets(2, (2, 4)) == [2, 4]


def test_assign_budgets_remainder_to_deepest():
    budgets = assign_budgets(10, (3, 6, 9, 12))
    assert [budgets.count(b) for b in (3, 6, 9, 12)] == [2, 2, 3, 3]


def test_assign_budgets_too_few_clients():
    with pytest.raises(ConfigError, match="fewer than 4 exits"):
        parse_config(overrides=["federation.num_clients=3", "model.depth=12", "schedule.exit_blocks=3,6,9,12"])


# -- sampling ----------------------------------------------------------------


def test_sample_size_and_determinism():
    pool = list(range(100))
    a = sample_clients(pool, 0.1, rng_for(7, 5, 1))
    b = sample_clients(pool, 0.1, rng_for(7, 5, 1))
    assert len(a) == 10 and a == b
    assert sample_clients(pool, 1.0, rng_for(7, 5, 2)) == pool


def test_sample_minimum_one():
    assert len(sample_clients([3, 4], 0.01, rng_for(0, 5, 1))) == 1


def test_sample_empty_pool():
    with pytest.raises(ConfigError):
        sample_clients([], 0.5, rng_for(0, 5, 1))


# -- slicing -------------------------------------------------------------------


def test_slice_full_budget_has_all_parameters():
    model = small_model()
    view = slice_submodel(model, 4)
    assert sum(name.endswith(".wq") and name.startswith("block") for name in view.params) == 4
    globals_by_name = model.params
    for name, tensor in view.params.items():
        np.testing.assert_array_equal(tensor.data, globals_by_name[name].data, err_msg=name)
    # mutating the view must not touch the global model
    view.params["block1.wq"].data[:] = 0.0
    assert not np.array_equal(model.params["block1.wq"].data, view.params["block1.wq"].data)


def test_slice_prefix():
    model = small_model(depth=12, exit_blocks=(3, 6, 9, 12))
    view = slice_submodel(model, 3)
    assert sum(name.endswith(".wq") and name.startswith("block") for name in view.params) == 3
    deeper = slice_submodel(model, 7)
    for l in range(1, 4):
        np.testing.assert_array_equal(view.params[f"block{l}.wq"].data, deeper.params[f"block{l}.wq"].data)


def test_slice_budget_errors():
    model = small_model(exit_blocks=(2, 4))
    with pytest.raises(BudgetError):
        slice_submodel(model, 5)
    with pytest.raises(BudgetError):
        slice_submodel(model, 1)  # below first exit


# -- aggregation ----------------------------------------------------------------


def test_aggregate_equal_weights_is_mean():
    model = small_model(seed=1)
    a = slice_submodel(model, 4)
    b = slice_submodel(model, 4)
    for t in a.params.values():
        t.data += 1.0
    for t in b.params.values():
        t.data += 3.0
    want = {n: t.data + 2.0 for n, t in model.params.items()}
    aggregate(model, [(a.params, 5, 4), (b.params, 5, 4)])
    for name, tensor in model.params.items():
        np.testing.assert_allclose(tensor.data, want[name], atol=1e-6, err_msg=name)


def test_aggregate_single_client_verbatim():
    model = small_model(seed=2)
    view = slice_submodel(model, 4)
    for t in view.params.values():
        t.data *= 1.7
    want = {n: t.data.copy() for n, t in view.params.items()}
    aggregate(model, [(view.params, 3, 4)])
    for name, tensor in model.params.items():
        np.testing.assert_array_equal(tensor.data, want[name], err_msg=name)


def test_aggregate_weighted_mean_value():
    model = small_model(seed=3)
    a = slice_submodel(model, 4)
    b = slice_submodel(model, 4)
    name = "block1.wq"
    a.params[name].data[:] = 0.0
    b.params[name].data[:] = 4.0
    aggregate(model, [(a.params, 1, 4), (b.params, 3, 4)])
    np.testing.assert_allclose(model.params[name].data, 3.0)


def test_aggregate_mixed_budgets_membership():
    model = small_model(depth=12, exit_blocks=(3, 6, 9, 12), seed=4)
    shallow = slice_submodel(model, 3)
    deep = slice_submodel(model, 12)
    for t in shallow.params.values():
        t.data[:] = 1.0
    for t in deep.params.values():
        t.data[:] = 5.0
    aggregate(
        model,
        [(shallow.params, 1, 3), (deep.params, 3, 12)],
    )
    named = model.params
    np.testing.assert_allclose(named["block7.wq"].data, 5.0)  # deep client only
    np.testing.assert_allclose(named["block2.wq"].data, 4.0)  # (1*1 + 3*5)/4
    np.testing.assert_allclose(named["ree.z_meta"].data, 4.0)  # shared by both


def test_aggregate_identical_inputs_fixed_point():
    model = small_model(seed=5)
    before = {n: t.data.copy() for n, t in model.params.items()}
    views = [slice_submodel(model, 4) for _ in range(3)]
    aggregate(model, [(v.params, w, 4) for v, w in zip(views, (1, 3, 7))])
    for name, tensor in model.params.items():
        np.testing.assert_array_equal(tensor.data, before[name], err_msg=name)


def test_aggregate_uncovered_group_keeps_value():
    model = small_model(depth=12, exit_blocks=(3, 6, 9, 12), seed=6)
    before = model.params["block12.wq"].data.copy()
    shallow = slice_submodel(model, 3)
    for t in shallow.params.values():
        t.data[:] = 9.0
    aggregate(model, [(shallow.params, 2, 3)])
    np.testing.assert_array_equal(model.params["block12.wq"].data, before)


def test_aggregate_brute_force_oracle():
    rng = np.random.default_rng(7)
    for trial in range(20):
        depth = int(rng.choice([4, 6, 12]))
        exit_blocks = tuple(sorted(rng.choice(range(1, depth + 1), size=2, replace=False)))
        if exit_blocks[-1] != depth:
            exit_blocks = exit_blocks[:-1] + (depth,)
        model = small_model(depth=depth, exit_blocks=exit_blocks, seed=100 + trial)
        n_updates = int(rng.integers(1, 5))
        updates = []
        for _ in range(n_updates):
            budget = int(rng.choice(exit_blocks))
            view = slice_submodel(model, budget)
            for t in view.params.values():
                t.data += rng.standard_normal(t.shape).astype(np.float32)
            updates.append((view.params, int(rng.integers(1, 50)), budget))

        # brute-force per-group oracle: membership recomputed from budgets
        want = {}
        for name, tensor in model.params.items():
            num, den = np.zeros(tensor.shape, dtype=np.float64), 0.0
            for params, weight, budget in updates:
                covers = (not name.startswith("block")) or int(name[5:name.index(".")]) <= budget
                if covers:
                    assert name in params
                    num += weight * params[name].data.astype(np.float64)
                    den += weight
            want[name] = (num / den) if den else tensor.data.astype(np.float64)

        aggregate(model, updates)
        for name, tensor in model.params.items():
            np.testing.assert_allclose(tensor.data, want[name], atol=1e-7, err_msg=name)


def test_aggregate_rejects_bad_updates():
    model = small_model(seed=8)
    view = slice_submodel(model, 4)
    params = view.params
    with pytest.raises(AggregationError):
        aggregate(model, [])
    with pytest.raises(AggregationError):
        aggregate(model, [(params, 0, 4)])
    with pytest.raises(AggregationError):
        aggregate(model, [({**params, "nope": params["ree.z_meta"]}, 1, 4)])
    with pytest.raises(AggregationError):
        aggregate(model, [(params, 1, 2)])  # block3/4 updates from budget-2 client


def test_deeper_blocks_receive_no_more_weight():
    model = small_model(depth=12, exit_blocks=(3, 6, 9, 12), seed=9)
    rng = np.random.default_rng(10)
    updates = []
    for _ in range(6):
        budget = int(rng.choice((3, 6, 9, 12)))
        updates.append((slice_submodel(model, budget).params, int(rng.integers(1, 9)), budget))
    weight_at_block = []
    for l in range(1, 13):
        weight_at_block.append(sum(w for _, w, b in updates if b >= l))
    assert all(b >= a for a, b in zip(weight_at_block[1:], weight_at_block))


# -- comm cost --------------------------------------------------------------------

BLOCK_FIELDS = ("ln1_gamma", "ln1_beta", "wq", "wk", "wv", "wo", "ln2_gamma", "ln2_beta", "mlp_w1", "mlp_w2")


def test_comm_cost_frozen_invariant_across_budgets_and_exits():
    model4 = small_model(depth=12, exit_blocks=(3, 6, 9, 12), seed=11)
    model12 = small_model(depth=12, exit_blocks=tuple(range(1, 13)), seed=12)
    costs = {
        comm_cost(slice_submodel(model4, 3), MODE_FROZEN),
        comm_cost(slice_submodel(model4, 12), MODE_FROZEN),
        comm_cost(slice_submodel(model12, 1), MODE_FROZEN),
        comm_cost(slice_submodel(model12, 12), MODE_FROZEN),
    }
    assert len(costs) == 1


def test_comm_cost_full_monotone_in_budget():
    model = small_model(depth=12, exit_blocks=(3, 6, 9, 12), seed=13)
    costs = [comm_cost(slice_submodel(model, r), MODE_FULL) for r in (3, 6, 9, 12)]
    assert all(b > a for a, b in zip(costs, costs[1:]))


def test_comm_cost_counting_oracle():
    model = small_model(seed=14)
    view = slice_submodel(model, 2)
    params = view.params
    count = 0
    for prefix in ("block1.", "block2."):
        for f in BLOCK_FIELDS:
            count += params[prefix + f].data.size
    count += params["patch_embed"].data.size
    count += params["pos_embed"].data.size
    count += params["class_token"].data.size
    frozen = 0
    for prefix in ("ree.",):
        for f in BLOCK_FIELDS:
            frozen += params[prefix + f].data.size
    frozen += params["ree.z_meta"].data.size + params["ree.pos"].data.size
    frozen += (
        params["classifier.ln_gamma"].data.size
        + params["classifier.ln_beta"].data.size
        + params["classifier.weight"].data.size
        + params["classifier.bias"].data.size
    )
    assert comm_cost(view, MODE_FROZEN) == 4 * frozen
    assert comm_cost(view, MODE_FULL) == 4 * (frozen + count)


# -- evaluation --------------------------------------------------------------------


def test_evaluate_untrained_near_chance():
    model = small_model(seed=15)
    data = synth_dataset(4, 50, image_size=8, rng=np.random.default_rng(16))
    accs = evaluate(model, data)
    assert accs.shape == (2,)
    assert (accs >= 0).all() and (accs <= 1).all()
    assert abs(accs.mean() - 0.25) < 0.2  # chance level 1/K with sampling slack


def test_evaluate_batch_partition_invariance():
    model = small_model(seed=17)
    data = synth_dataset(4, 10, image_size=8, rng=np.random.default_rng(18))
    a = evaluate(model, data, batch_size=7)
    b = evaluate(model, data, batch_size=40)
    np.testing.assert_array_equal(a, b)


def shape_config(depth, dim, image, exit_blocks, heads=4, patch=4):
    return ModelConfig(depth=depth, dim=dim, heads=heads, patch_size=patch, num_classes=4,
                       image_size=image, image_channels=1, exit_blocks=exit_blocks)


def test_eval_batch_size_caps_the_widest_activation():
    # criterion 7 (17 tokens, d=16) and eval_heavy (10 tokens, d=32) keep the
    # cap; cross_silo (65 tokens, d=64) has 260 attention scores per token, so
    # 65 * 260 * 4 B per sample and 2**20 // 67600 = 15 samples per batch.
    assert eval_batch_size(shape_config(8, 16, 16, (2, 4, 6, 8))) == 64
    assert eval_batch_size(shape_config(12, 32, 12, (3, 6, 9, 12))) == 64
    assert eval_batch_size(shape_config(8, 64, 32, (2, 4, 6, 8))) == 15
    assert eval_batch_size(shape_config(8, 64, 32, (2, 4, 6, 8)), np.float64) == 7
    # one sample alone over the budget: 257 tokens * 4096 MLP units * 4 B
    assert eval_batch_size(shape_config(1, 1024, 32, (1,), patch=2)) == 1


def wide_model_and_data():
    """Depth 2, d=64 on 32x32 images with patch 4: 65 tokens, as in cross_silo."""
    model = init_global_model(shape_config(2, 64, 32, (1, 2)), np.random.default_rng(22))
    data = synth_dataset(4, 16, image_size=32, rng=np.random.default_rng(23))
    return model, data


def test_evaluate_default_batch_gives_the_same_bits():
    from reefl.numerics import no_grad
    from reefl.ree import forward_with_exits

    model, data = wide_model_and_data()
    assert eval_batch_size(model.config) == 15
    default = evaluate(model, data)
    np.testing.assert_array_equal(default, evaluate(model, data, batch_size=64))
    np.testing.assert_array_equal(default, evaluate(model, data, batch_size=1))
    # the logits themselves do not depend on how the samples are batched
    images = np.stack([ex.image for ex in data])
    with no_grad():
        whole = forward_with_exits(model, images).exit_logits
        chunks = [forward_with_exits(model, images[i : i + 15]).exit_logits for i in range(0, 64, 15)]
    for e, logits in enumerate(whole):
        np.testing.assert_array_equal(logits.data, np.concatenate([c[e].data for c in chunks]))


def test_logits_do_not_depend_on_a_batch_of_two_or_more():
    # A fresh model's shared block starts at zero (ree.wo, ree.mlp_w2), which
    # hides rounding differences; here every zero-initialized tensor is drawn.
    # A batch of one is left out: numpy's matmul of a one-row operand takes
    # its vector-matrix path, whose bits may differ.
    from reefl.numerics import no_grad
    from reefl.ree import forward_with_exits

    model, data = wide_model_and_data()
    rng = np.random.default_rng(24)
    for t in model.params.values():
        if not t.data.any():
            t.data[...] = 0.02 * rng.standard_normal(t.shape)
    assert model.params["ree.wo"].data.any() and model.params["ree.mlp_w2"].data.any()
    with no_grad():
        whole = forward_with_exits(model, data.image).exit_logits
        for size in (2, 15, 63):
            part = forward_with_exits(model, data.image[:size]).exit_logits
            for e, logits in enumerate(whole):
                np.testing.assert_array_equal(part[e].data, logits.data[:size], err_msg=f"batch {size}, exit {e}")


def test_evaluate_default_batch_lowers_the_memory_peak():
    model, data = wide_model_and_data()

    def traced_peak(**kw):
        with traced_memory() as measure:
            start, peak = measure(evaluate, model, data, **kw)
        return peak - start

    default, full = traced_peak(), traced_peak(batch_size=64)
    assert default < full / 2, (default, full)


def test_evaluate_empty_test_set():
    data = synth_dataset(4, 2, image_size=8, rng=np.random.default_rng(19))
    for empty in ([], data[:0]):
        with pytest.raises(ConfigError, match="empty test set"):
            evaluate(small_model(seed=19), empty)


def test_evaluate_one_example():
    from reefl.numerics import no_grad
    from reefl.ree import forward_with_exits

    model = small_model(seed=19)
    one = synth_dataset(4, 2, image_size=8, rng=np.random.default_rng(19))[3:4]
    with no_grad():
        logits = forward_with_exits(model, one.image).exit_logits
    want = [float(np.argmax(x.data[0]) == one[0].label) for x in logits]
    np.testing.assert_array_equal(evaluate(model, one), want)


def test_evaluate_memorization_reaches_ceiling():
    # overfit sanity: train == test, final exit should hit ~1.0
    from reefl.ree import forward_with_exits
    from reefl.training import TrainConfig, cosine_lr, exit_ce_losses, sgd_step, trainable_tensors

    model = small_model(depth=2, exit_blocks=(1, 2), seed=20)
    data = synth_dataset(4, 4, image_size=8, noise=0.1, rng=np.random.default_rng(21))
    view = model
    tcfg = TrainConfig(total_rounds=80, batch_size=16, kd_enabled=False, lr0=0.05)
    trainable = trainable_tensors(view, MODE_FULL)
    for t in trainable.values():
        t.requires_grad = True
    images = np.stack([ex.image for ex in data])
    labels = np.array([ex.label for ex in data])
    for epoch in range(1, 81):
        trace = forward_with_exits(view, images)
        losses = exit_ce_losses(trace, labels)
        total = losses[0]
        for ce in losses[1:]:
            total = total + ce
        total.backward()
        sgd_step(trainable.values(), cosine_lr(epoch, tcfg), tcfg.clip)
    accs = evaluate(model, data)
    assert accs[-1] > 0.99, accs


# -- rounds ------------------------------------------------------------------------


def test_run_round_produces_report():
    cfg = cfg_overrides()
    state = build_server(cfg)
    report = run_round(state, 1)
    assert report.round_index == 1
    assert report.sampled == [0, 1, 2, 3]
    assert report.exit_accuracy is not None and len(report.exit_accuracy) == 2
    assert report.bytes_up == report.bytes_down > 0
    assert np.isfinite(report.train_loss_mean)


def test_exclude_underbudget_samples_only_full():
    cfg = cfg_overrides(**{"federation.exclude_underbudget": "true"})
    state = build_server(cfg)
    depth = state.model.config.depth
    for t in (1, 2):
        report = run_round(state, t)
        assert all(state.clients[cid].budget == depth for cid in report.sampled)


def test_run_experiment_deterministic():
    outs = [list(run_rounds(build_server(cfg_overrides()))) for _ in range(2)]
    for ra, rb in zip(*outs):
        np.testing.assert_array_equal(ra.exit_accuracy, rb.exit_accuracy)
        assert ra.train_loss_mean == rb.train_loss_mean
        assert ra.sampled == rb.sampled


def test_frozen_round_transfers_only_shared_stack():
    cfg = cfg_overrides(**{"train.mode": "frozen"})
    state = build_server(cfg)
    backbone_before = {
        n: t.data.copy()
        for n, t in state.model.params.items()
        if not n.startswith(("ree.", "classifier."))
    }
    report = run_round(state, 1)
    frozen_cost = comm_cost(slice_submodel(state.model, state.model.config.depth), MODE_FROZEN)
    assert report.bytes_up == frozen_cost * len(report.sampled)
    for name, data in backbone_before.items():
        np.testing.assert_array_equal(state.model.params[name].data, data, err_msg=name)


def test_estimates_persist_across_rounds():
    cfg = cfg_overrides()
    state = build_server(cfg)
    run_round(state, 1)
    first = {c.id: c.estimate.copy() for c in state.clients if c.estimate is not None}
    assert first
    run_round(state, 2)
    for cid, values in first.items():
        assert state.clients[cid].estimate is not None
        assert not np.array_equal(state.clients[cid].estimate, values)
