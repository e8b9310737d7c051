import numpy as np
import pytest

import reefl.ree as ree_mod
from conftest import make_view
from reefl.backbone import block_forward, msa_forward
from reefl.errors import BudgetError, InputError, ScheduleError
from reefl.numerics import Tensor, concat, grad_check, layer_norm, narrow, reshape, stack, tsum
from reefl.ree import (
    REE_HEADS,
    attention_maps,
    classify_exit,
    forward_with_exits,
    init_classifier,
    init_ree,
    modulate,
    ree_forward,
    ree_mlp_hidden,
)


def batch(rng, b=2, image=8):
    return rng.random((b, 1, image, image)).astype(np.float32)


def test_mlp_hidden_rounds_up():
    assert ree_mlp_hidden(32) == 44
    assert ree_mlp_hidden(20) == 27


def test_ree_forward_shapes():
    rng = np.random.default_rng(0)
    ree = init_ree(8, pos_rows=5, rng=rng)
    queue = [Tensor(rng.standard_normal((2, 8)).astype(np.float32)) for _ in range(2)]
    out = ree_forward(queue, ree)
    assert len(out) == 2 and all(m.shape == (2, 8) for m in out)


def test_ree_forward_queue_overflow():
    rng = np.random.default_rng(1)
    ree = init_ree(8, pos_rows=2, rng=rng)
    queue = [Tensor(np.zeros((1, 8), dtype=np.float32)) for _ in range(3)]
    with pytest.raises(ScheduleError):
        ree_forward(queue, ree)


def test_ree_residual_zeroed_passthrough():
    rng = np.random.default_rng(2)
    ree = init_ree(8, pos_rows=4, rng=rng)
    ree["ree.wo"].data[:] = 0.0
    ree["ree.mlp_w2"].data[:] = 0.0
    queue = [Tensor(rng.standard_normal((1, 8)).astype(np.float32)) for _ in range(3)]
    m0, m_last = ree_forward(queue, ree)
    np.testing.assert_allclose(m0.data, queue[0].data + ree["ree.pos"].data[0], atol=1e-6)
    np.testing.assert_allclose(m_last.data, queue[-1].data + ree["ree.pos"].data[2], atol=1e-6)


def full_queue_reference(queue, ree):
    """Rows 0 and q-1 of the shared block run over every queue row."""
    q = len(queue)
    seq = stack(queue, axis=1) + narrow(ree["ree.pos"], 0, 0, q)
    out, _ = block_forward(seq, ree, "ree.", REE_HEADS)
    return out.select(1, 0), out.select(1, q - 1)


def random_ree(rng, dim, pos_rows):
    ree = init_ree(dim, pos_rows=pos_rows, rng=rng, dtype=np.float64)
    ree["ree.wo"].data[:] = rng.standard_normal(ree["ree.wo"].shape) * 0.1
    ree["ree.mlp_w2"].data[:] = rng.standard_normal(ree["ree.mlp_w2"].shape) * 0.1
    return ree


def test_ree_forward_matches_full_queue_block():
    rng = np.random.default_rng(40)
    ree = random_ree(rng, dim=8, pos_rows=13)
    queue = [Tensor(rng.standard_normal((3, 8)), dtype=np.float64) for _ in range(13)]
    for q in range(2, 14):
        got = ree_forward(queue[:q], ree)
        want = full_queue_reference(queue[:q], ree)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g.data, w.data, rtol=1e-12, atol=1e-12, err_msg=f"q={q}")


def test_ree_forward_grad_through_middle_rows():
    rng = np.random.default_rng(41)
    ree = random_ree(rng, dim=6, pos_rows=5)
    queue = [Tensor(rng.standard_normal((2, 6)), requires_grad=True, dtype=np.float64) for _ in range(4)]
    w0, w1 = (Tensor(rng.standard_normal((2, 6)), dtype=np.float64) for _ in range(2))

    def loss():
        m0, m_last = ree_forward(queue, ree)
        return tsum(m0 * w0) + tsum(m_last * w1)

    params = dict(ree)
    params.update({f"queue{i}": t for i, t in enumerate(queue)})
    report = grad_check(loss, params)
    assert report.passed, report


def test_recurrent_applications_share_gradients():
    rng = np.random.default_rng(3)
    ree = init_ree(6, pos_rows=4, rng=rng, dtype=np.float64)
    ree["ree.wo"].data[:] = rng.standard_normal(ree["ree.wo"].shape) * 0.1
    ree["ree.mlp_w2"].data[:] = rng.standard_normal(ree["ree.mlp_w2"].shape) * 0.1
    c0 = Tensor(rng.standard_normal((1, 6)), dtype=np.float64)
    c1 = Tensor(rng.standard_normal((1, 6)), dtype=np.float64)
    meta = reshape(ree["ree.z_meta"], (1, 6))

    def loss():
        m1 = ree_forward([meta, c0], ree)
        m2 = ree_forward([meta, c0, c1], ree)
        return tsum(m1[-1]) + tsum(m2[-1])

    report = grad_check(loss, ree)
    assert report.passed, report


def test_classify_exit_cancellation_gives_bias():
    rng = np.random.default_rng(4)
    cls = init_classifier(8, 4, rng)
    cls["classifier.bias"].data[:] = rng.standard_normal(4).astype(np.float32)
    zcls = Tensor(rng.standard_normal((2, 8)).astype(np.float32))
    m0 = Tensor(-zcls.data)
    logits = classify_exit(m0, zcls, cls)
    np.testing.assert_allclose(logits.data, np.tile(cls["classifier.bias"].data, (2, 1)), atol=1e-6)


def test_classify_exit_additivity():
    rng = np.random.default_rng(5)
    cls = init_classifier(8, 4, rng)
    total = rng.standard_normal((1, 8)).astype(np.float32)
    split = rng.standard_normal((1, 8)).astype(np.float32)
    a = classify_exit(Tensor(split), Tensor(total - split), cls)
    b = classify_exit(Tensor(total - split), Tensor(split), cls)
    np.testing.assert_allclose(a.data, b.data, atol=1e-6)


def test_classify_exit_grads_reach_both_inputs():
    rng = np.random.default_rng(6)
    cls = init_classifier(6, 3, rng, dtype=np.float64)
    m0 = Tensor(rng.standard_normal((2, 6)), requires_grad=True, dtype=np.float64)
    zcls = Tensor(rng.standard_normal((2, 6)), requires_grad=True, dtype=np.float64)
    report = grad_check(lambda: tsum(classify_exit(m0, zcls, cls)), {"m0": m0, "zcls": zcls})
    assert report.passed, report
    assert report.per_param["m0"] < 1e-4 and report.per_param["zcls"] < 1e-4


def test_modulate_touches_only_class_row():
    rng = np.random.default_rng(7)
    tokens = Tensor(rng.standard_normal((2, 5, 8)).astype(np.float32))
    m_last = Tensor(rng.standard_normal((2, 8)).astype(np.float32))
    out = modulate(tokens, m_last)
    np.testing.assert_array_equal(out.data[:, 1:], tokens.data[:, 1:])
    np.testing.assert_array_equal(out.data[:, 0], m_last.data)


def test_modulate_fixed_point():
    view = make_view(depth=2, seed=8)
    rng = np.random.default_rng(9)
    imgs = batch(rng)

    real = forward_with_exits(view, imgs, modulation=True)

    calls = []
    orig = ree_mod.modulate

    def fixed_point(tokens, m_last):
        calls.append(1)
        return orig(tokens, tokens.select(1, 0))  # replace class row with itself

    ree_mod.modulate, saved = fixed_point, ree_mod.modulate
    try:
        fp = forward_with_exits(view, imgs, modulation=True)
    finally:
        ree_mod.modulate = saved
    off = forward_with_exits(view, imgs, modulation=False)
    assert calls
    for a, b in zip(fp.activations, off.activations):
        np.testing.assert_array_equal(a.data, b.data)
    assert not np.array_equal(real.activations[-1].data, off.activations[-1].data)


def test_forward_counts_everywhere_mode():
    view = make_view(depth=12, dim=8, image=8, budget=3, seed=10)
    trace = forward_with_exits(view, batch(np.random.default_rng(11)))
    assert len(trace.exit_logits) == 3
    assert list(trace.modulated) == [1, 2, 3]
    assert len(trace.modulated) == 3


def test_forward_counts_exit_only_mode():
    view = make_view(
        depth=12, dim=8, exit_blocks=(3, 6, 9, 12), ree_everywhere=False, seed=12,
    )
    assert view.config.pos_rows == 5
    trace = forward_with_exits(view, batch(np.random.default_rng(13)))
    assert len(trace.modulated) == 4
    assert list(trace.modulated) == [3, 6, 9, 12] and len(trace.exit_logits) == 4


def test_forward_empty_batch_rejected():
    view = make_view(seed=14)
    with pytest.raises(InputError):
        forward_with_exits(view, np.zeros((0, 1, 8, 8), dtype=np.float32))


@pytest.mark.parametrize("shape", [(2, 3, 8, 8), (2, 1, 12, 12), (2, 1, 8, 12)])
def test_forward_images_of_other_shape_rejected(shape):
    view = make_view(seed=14)
    with pytest.raises(InputError, match=r"shape \(\d+, \d+, \d+\), but the model expects \(1, 8, 8\)"):
        forward_with_exits(view, np.zeros(shape, dtype=np.float32))


def test_forward_budget_below_first_exit():
    view = make_view(depth=4, exit_blocks=(3, 4), budget=2, seed=15)
    with pytest.raises(BudgetError):
        forward_with_exits(view, batch(np.random.default_rng(16)))


def test_exit_logits_causal_in_prefix():
    rng = np.random.default_rng(17)
    imgs = batch(rng)
    full = make_view(depth=4, exit_blocks=(2, 4), seed=18)
    short = make_view(depth=4, exit_blocks=(2, 4), budget=2, seed=18)
    t_full = forward_with_exits(full, imgs)
    t_short = forward_with_exits(short, imgs)
    np.testing.assert_array_equal(t_full.exit_logits[0].data, t_short.exit_logits[0].data)


def test_exit_only_with_all_blocks_matches_everywhere():
    rng = np.random.default_rng(19)
    imgs = batch(rng)
    a_view = make_view(depth=4, ree_everywhere=True, seed=20)
    b_view = make_view(depth=4, ree_everywhere=False, seed=20)
    ta = forward_with_exits(a_view, imgs)
    tb = forward_with_exits(b_view, imgs)
    assert a_view.config.pos_rows == b_view.config.pos_rows == 5
    for la, lb in zip(ta.exit_logits, tb.exit_logits):
        np.testing.assert_array_equal(la.data, lb.data)
    np.testing.assert_array_equal(ta.activations[-1].data, tb.activations[-1].data)


def test_classification_precedes_modulation():
    view = make_view(depth=3, seed=21)
    order = []
    saved_mod, saved_cls = ree_mod.modulate, ree_mod.classify_exit

    def spy_mod(tokens, m_last):
        order.append("modulate")
        return saved_mod(tokens, m_last)

    def spy_cls(m0, zcls, cls):
        order.append("classify")
        return saved_cls(m0, zcls, cls)

    ree_mod.modulate, ree_mod.classify_exit = spy_mod, spy_cls
    try:
        forward_with_exits(view, batch(np.random.default_rng(22)))
    finally:
        ree_mod.modulate, ree_mod.classify_exit = saved_mod, saved_cls
    assert order == ["classify", "modulate"] * 3


def test_modulation_ablation_changes_downstream():
    view = make_view(depth=2, seed=23)
    imgs = batch(np.random.default_rng(24))
    on = forward_with_exits(view, imgs, modulation=True)
    off = forward_with_exits(view, imgs, modulation=False)
    np.testing.assert_array_equal(on.exit_logits[0].data, off.exit_logits[0].data)
    assert not np.array_equal(on.exit_logits[1].data, off.exit_logits[1].data)


def test_attention_maps_match_direct_recompute():
    view = make_view(depth=3, seed=25)
    imgs = batch(np.random.default_rng(26))
    trace = forward_with_exits(view, imgs)
    maps = attention_maps(trace, 2, view)
    n = view.config.num_patches
    for arr in (maps.query_x, maps.query_m, maps.query_c):
        assert arr.shape == (2, n)
        assert (arr >= 0).all() and (arr <= 1).all()
        assert (arr.sum(axis=1) <= 1.0 + 1e-6).all()

    prev = trace.activations[1]
    blk = view.params
    seq = concat([reshape(prev.select(1, 0), (2, 1, 8)), narrow(prev, 1, 1, prev.shape[1])], axis=1)
    normed = layer_norm(seq, blk["block2.ln1_gamma"], blk["block2.ln1_beta"])
    _, attn = msa_forward(normed, normed, blk, "block2.", view.config.heads)
    want = attn.data[:, :, 0, 1:].mean(axis=1)
    np.testing.assert_allclose(maps.query_x, want, atol=1e-6)


def test_attention_maps_single_head_mean_is_identity():
    view = make_view(depth=2, dim=8, heads=1, seed=27)
    imgs = batch(np.random.default_rng(28))
    trace = forward_with_exits(view, imgs)
    maps = attention_maps(trace, 1, view)
    prev = trace.activations[0]
    blk = view.params
    seq = concat([reshape(prev.select(1, 0), (2, 1, 8)), narrow(prev, 1, 1, prev.shape[1])], axis=1)
    normed = layer_norm(seq, blk["block1.ln1_gamma"], blk["block1.ln1_beta"])
    _, direct = msa_forward(normed, normed, blk, "block1.", 1)
    assert direct.shape[1] == 1
    np.testing.assert_allclose(maps.query_x, direct.data[:, 0, 0, 1:], atol=1e-6)


def test_attention_maps_block_not_executed():
    view = make_view(depth=4, budget=2, exit_blocks=(1, 2, 3, 4), seed=29)
    trace = forward_with_exits(view, batch(np.random.default_rng(30)))
    with pytest.raises(IndexError):
        attention_maps(trace, 3, view)


def test_exit_only_mode_maps_missing_off_exit():
    view = make_view(depth=4, exit_blocks=(2, 4), ree_everywhere=False, seed=31)
    trace = forward_with_exits(view, batch(np.random.default_rng(32)))
    maps = attention_maps(trace, 1, view)
    assert maps.query_m is None and maps.query_c is None
    maps2 = attention_maps(trace, 2, view)
    assert maps2.query_m is not None and maps2.query_c is not None


def test_end_to_end_exit_loss_grad():
    view = make_view(depth=2, dim=8, seed=33, dtype=np.float64)
    rng = np.random.default_rng(34)
    view.params["ree.wo"].data[:] = rng.standard_normal(view.params["ree.wo"].shape) * 0.1
    view.params["ree.mlp_w2"].data[:] = rng.standard_normal(view.params["ree.mlp_w2"].shape) * 0.1
    imgs = rng.random((2, 1, 8, 8))
    labels = np.array([1, 2])

    from reefl.numerics import cross_entropy

    def loss():
        trace = forward_with_exits(view, imgs)
        total = cross_entropy(trace.exit_logits[0], labels)
        for logits in trace.exit_logits[1:]:
            total = total + cross_entropy(logits, labels)
        return total

    report = grad_check(loss, view.params)
    assert report.passed, report
