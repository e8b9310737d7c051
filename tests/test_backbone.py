import numpy as np
import pytest

from conftest import make_view
from reefl.backbone import (
    ModelConfig,
    block_forward,
    block_prefix,
    init_backbone,
    init_block,
    msa_forward,
    tokenize,
)
from reefl.errors import BudgetError, ConfigError, ShapeError
from reefl.numerics import Tensor, concat, cross_entropy, grad_check, matmul, narrow, tsum
from reefl.ree import forward_with_exits


def tiny_cfg(depth=2, dim=8, heads=2, image=8, patch=4):
    return ModelConfig(
        depth=depth, dim=dim, heads=heads, patch_size=patch,
        num_classes=4, image_size=image, image_channels=1, exit_blocks=(depth,),
    )


def zero_residuals(params, depth):
    for l in range(1, depth + 1):
        params[f"block{l}.wo"].data[:] = 0.0
        params[f"block{l}.mlp_w2"].data[:] = 0.0


def test_tokenize_shape():
    cfg = tiny_cfg()
    rng = np.random.default_rng(0)
    params = init_backbone(cfg, rng)
    img = rng.random((1, 1, 8, 8)).astype(np.float32)
    z = tokenize(img, params, cfg)
    assert z.data[0].shape == (5, cfg.dim)  # 4 patch tokens + class token
    batch = rng.random((3, 1, 8, 8)).astype(np.float32)
    zb = tokenize(batch, params, cfg)
    assert zb.shape == (3, 5, cfg.dim)


def test_tokenize_zero_image_keeps_class_token():
    cfg = tiny_cfg()
    params = init_backbone(cfg, np.random.default_rng(1))
    params["pos_embed"].data[:] = 0.0
    z = tokenize(np.zeros((1, 1, 8, 8), dtype=np.float32), params, cfg)
    np.testing.assert_array_equal(z.data[0, 0], params["class_token"].data)


def test_tokenize_indivisible_image():
    cfg = tiny_cfg()
    params = init_backbone(cfg, np.random.default_rng(2))
    with pytest.raises(ConfigError):
        tokenize(np.zeros((1, 1, 9, 9), dtype=np.float32), params, cfg)


def test_tokenize_grad_matches_fd():
    cfg = tiny_cfg()
    rng = np.random.default_rng(3)
    params = init_backbone(cfg, rng, dtype=np.float64)
    img = rng.random((1, 1, 8, 8))
    report = grad_check(
        lambda: tsum(tokenize(img, params, cfg)),
        {"patch_embed": params["patch_embed"], "pos_embed": params["pos_embed"], "cls": params["class_token"]},
    )
    assert report.passed, report


def test_block_zero_residual_is_identity():
    cfg = tiny_cfg()
    rng = np.random.default_rng(4)
    params = init_backbone(cfg, rng)
    zero_residuals(params, cfg.depth)
    z = Tensor(rng.standard_normal((1, 5, cfg.dim)).astype(np.float32))
    out, _ = block_forward(z, params, "block1.", cfg.heads)
    np.testing.assert_allclose(out.data, z.data, atol=1e-6)


def test_block_preserves_shape():
    cfg = tiny_cfg()
    rng = np.random.default_rng(5)
    params = init_backbone(cfg, rng)
    z = Tensor(rng.standard_normal((3, 5, cfg.dim)).astype(np.float32))
    for l in range(1, cfg.depth + 1):
        z, attn = block_forward(z, params, block_prefix(l), cfg.heads)
        assert z.shape == (3, 5, cfg.dim)
        assert attn.shape == (3, cfg.heads, 5, 5)


def test_block_grad_matches_fd():
    rng = np.random.default_rng(6)
    blk = init_block(rng, "b.", dim=6, attn_dim=6, mlp_hidden=8, dtype=np.float64)
    z = Tensor(rng.standard_normal((1, 4, 6)), dtype=np.float64)
    w = Tensor(rng.standard_normal((1, 4, 6)), dtype=np.float64)
    report = grad_check(lambda: tsum(block_forward(z, blk, "b.", heads=2)[0] * w), blk)
    assert report.passed, report


def test_msa_single_token_attention():
    rng = np.random.default_rng(7)
    blk = init_block(rng, "b.", dim=8, attn_dim=8, mlp_hidden=8)
    z = Tensor(rng.standard_normal((1, 1, 8)).astype(np.float32))
    _, attn = msa_forward(z, z, blk, "b.", heads=2)
    np.testing.assert_allclose(attn.data, 1.0)


def test_msa_identical_keys_uniform_rows():
    rng = np.random.default_rng(8)
    blk = init_block(rng, "b.", dim=8, attn_dim=8, mlp_hidden=8)
    row = rng.standard_normal(8).astype(np.float32)
    z = Tensor(np.tile(row, (1, 5, 1)))
    _, attn = msa_forward(z, z, blk, "b.", heads=2)
    np.testing.assert_allclose(attn.data, 0.2, atol=1e-6)


def test_msa_rows_sum_to_one():
    rng = np.random.default_rng(9)
    blk = init_block(rng, "b.", dim=8, attn_dim=8, mlp_hidden=8)
    z = Tensor(rng.standard_normal((3, 5, 8)).astype(np.float32))
    _, attn = msa_forward(z, z, blk, "b.", heads=2)
    np.testing.assert_allclose(attn.data.sum(axis=-1), 1.0, atol=1e-6)


def test_msa_query_rows_match_self_attention_rows():
    rng = np.random.default_rng(11)
    blk = init_block(rng, "b.", dim=8, attn_dim=8, mlp_hidden=8, dtype=np.float64)
    z = Tensor(rng.standard_normal((3, 5, 8)), dtype=np.float64)
    full_out, full_attn = msa_forward(z, z, blk, "b.", heads=2)
    rows = concat([narrow(z, 1, 0, 1), narrow(z, 1, 4, 5)], axis=1)
    out, attn = msa_forward(rows, z, blk, "b.", heads=2)
    assert out.shape == (3, 2, 8) and attn.shape == (3, 2, 2, 5)
    np.testing.assert_allclose(out.data, full_out.data[:, [0, 4]], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(attn.data, full_attn.data[:, :, [0, 4]], rtol=1e-12, atol=1e-14)
    with pytest.raises(ShapeError):
        msa_forward(narrow(z, 0, 0, 1), z, blk, "b.", heads=2)
    with pytest.raises(ShapeError):
        msa_forward(z.select(0, 0), z.select(0, 0), blk, "b.", heads=2)


def run_blocks(params, images, cfg, upto):
    """Tokenize, then blocks 1..upto; the tokens after each step, index 0 the input."""
    acts = [tokenize(images, params, cfg)]
    for l in range(1, upto + 1):
        acts.append(block_forward(acts[-1], params, block_prefix(l), cfg.heads)[0])
    return acts


def test_prefix_budget_out_of_range():
    view = make_view(depth=2, budget=3, seed=12)
    img = np.zeros((1, 1, 8, 8), dtype=np.float32)
    with pytest.raises(BudgetError):
        forward_with_exits(view, img)


def test_hook_touches_only_class_row_downstream():
    view = make_view(depth=2, seed=13)
    img = np.random.default_rng(13).random((1, 1, 8, 8)).astype(np.float32)
    plain = forward_with_exits(view, img, modulation=False).activations
    modulated = forward_with_exits(view, img, modulation=True).activations
    np.testing.assert_array_equal(plain[1].data, modulated[1].data)  # block-1 output stored unmodulated
    assert not np.array_equal(plain[2].data, modulated[2].data)  # block 2 saw the modulated class row


def test_prefix_property_for_shorter_budget():
    img = np.random.default_rng(14).random((1, 1, 8, 8)).astype(np.float32)
    short = forward_with_exits(make_view(depth=3, budget=2, seed=14), img).activations
    full = forward_with_exits(make_view(depth=3, seed=14), img).activations
    assert len(short) == 3 and len(full) == 4
    for a, b in zip(short, full):
        np.testing.assert_array_equal(a.data, b.data)


def test_zero_weight_prefix_is_identity_on_tokens():
    cfg = tiny_cfg(depth=2)
    rng = np.random.default_rng(15)
    params = init_backbone(cfg, rng)
    zero_residuals(params, cfg.depth)
    img = rng.random((1, 1, 8, 8)).astype(np.float32)
    acts = run_blocks(params, img, cfg, 2)
    np.testing.assert_allclose(acts[-1].data, acts[0].data, atol=1e-5)


def test_named_tensors_cover_blocks():
    cfg = tiny_cfg(depth=2)
    params = init_backbone(cfg, np.random.default_rng(16))
    names = params
    assert "block1.wq" in names and "block2.mlp_w2" in names
    assert len(names) == 3 + 2 * 10


def test_end_to_end_classification_grad():
    cfg = tiny_cfg(depth=2, dim=8)
    rng = np.random.default_rng(17)
    params = init_backbone(cfg, rng, dtype=np.float64)
    w = Tensor(rng.standard_normal((cfg.dim, cfg.num_classes)), requires_grad=True, dtype=np.float64)
    imgs = rng.random((2, 1, 8, 8))
    labels = np.array([0, 3])

    def loss():
        acts = run_blocks(params, imgs, cfg, 2)
        cls = acts[-1].select(1, 0)
        return cross_entropy(matmul(cls, w), labels)

    checked = dict(params, head=w)
    report = grad_check(loss, checked)
    assert report.passed, report
