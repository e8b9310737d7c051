import numpy as np
import pytest

from reefl.backbone import (
    BackboneConfig,
    block_forward,
    init_backbone,
    init_block,
    msa_forward,
    named_backbone_tensors,
    prefix_forward,
    tokenize,
)
from reefl.errors import BudgetError, ConfigError, ShapeError
from reefl.numerics import Tensor, concat, cross_entropy, grad_check, narrow, tsum


def tiny_cfg(depth=2, dim=8, heads=2, image=8, patch=4):
    return BackboneConfig(
        depth=depth, dim=dim, heads=heads, patch_size=patch,
        num_classes=4, image_size=image, image_channels=1,
    )


def zero_residuals(params):
    for blk in params.blocks:
        blk.wo.data[:] = 0.0
        blk.mlp_w2.data[:] = 0.0


def test_tokenize_shape():
    cfg = tiny_cfg()
    rng = np.random.default_rng(0)
    params = init_backbone(cfg, rng)
    img = rng.random((1, 8, 8)).astype(np.float32)
    z = tokenize(img, params, cfg)
    assert z.shape == (5, cfg.dim)  # 4 patch tokens + class token
    batch = rng.random((3, 1, 8, 8)).astype(np.float32)
    zb = tokenize(batch, params, cfg)
    assert zb.shape == (3, 5, cfg.dim)


def test_tokenize_zero_image_keeps_class_token():
    cfg = tiny_cfg()
    params = init_backbone(cfg, np.random.default_rng(1))
    params.pos_embed.data[:] = 0.0
    z = tokenize(np.zeros((1, 8, 8), dtype=np.float32), params, cfg)
    np.testing.assert_array_equal(z.data[0], params.class_token.data)


def test_tokenize_indivisible_image():
    cfg = tiny_cfg()
    params = init_backbone(cfg, np.random.default_rng(2))
    with pytest.raises(ConfigError):
        tokenize(np.zeros((1, 9, 9), dtype=np.float32), params, cfg)


def test_tokenize_grad_matches_fd():
    cfg = tiny_cfg()
    rng = np.random.default_rng(3)
    params = init_backbone(cfg, rng, dtype=np.float64)
    img = rng.random((1, 8, 8))
    report = grad_check(
        lambda: tsum(tokenize(img, params, cfg)),
        {"patch_embed": params.patch_embed, "pos_embed": params.pos_embed, "cls": params.class_token},
    )
    assert report.passed, report


def test_block_zero_residual_is_identity():
    cfg = tiny_cfg()
    rng = np.random.default_rng(4)
    params = init_backbone(cfg, rng)
    zero_residuals(params)
    z = Tensor(rng.standard_normal((5, cfg.dim)).astype(np.float32))
    out, _ = block_forward(z, params.blocks[0], cfg.heads)
    np.testing.assert_allclose(out.data, z.data, atol=1e-6)


def test_block_preserves_shape():
    cfg = tiny_cfg()
    rng = np.random.default_rng(5)
    params = init_backbone(cfg, rng)
    z = Tensor(rng.standard_normal((3, 5, cfg.dim)).astype(np.float32))
    for blk in params.blocks:
        z, attn = block_forward(z, blk, cfg.heads)
        assert z.shape == (3, 5, cfg.dim)
        assert attn.shape == (3, cfg.heads, 5, 5)


def test_block_grad_matches_fd():
    rng = np.random.default_rng(6)
    blk = init_block(rng, dim=6, attn_dim=6, mlp_hidden=8, dtype=np.float64)
    z = Tensor(rng.standard_normal((4, 6)), dtype=np.float64)
    w = Tensor(rng.standard_normal((4, 6)), dtype=np.float64)
    params = {f: getattr(blk, f) for f in (
        "ln1_gamma", "ln1_beta", "wq", "wk", "wv", "wo",
        "ln2_gamma", "ln2_beta", "mlp_w1", "mlp_w2",
    )}
    report = grad_check(lambda: tsum(block_forward(z, blk, heads=2)[0] * w), params)
    assert report.passed, report


def test_msa_single_token_attention():
    rng = np.random.default_rng(7)
    blk = init_block(rng, dim=8, attn_dim=8, mlp_hidden=8)
    z = Tensor(rng.standard_normal((1, 8)).astype(np.float32))
    _, attn = msa_forward(z, z, blk, heads=2)
    np.testing.assert_allclose(attn.data, 1.0)


def test_msa_identical_keys_uniform_rows():
    rng = np.random.default_rng(8)
    blk = init_block(rng, dim=8, attn_dim=8, mlp_hidden=8)
    row = rng.standard_normal(8).astype(np.float32)
    z = Tensor(np.tile(row, (5, 1)))
    _, attn = msa_forward(z, z, blk, heads=2)
    np.testing.assert_allclose(attn.data, 0.2, atol=1e-6)


def test_msa_rows_sum_to_one():
    rng = np.random.default_rng(9)
    blk = init_block(rng, dim=8, attn_dim=8, mlp_hidden=8)
    z = Tensor(rng.standard_normal((3, 5, 8)).astype(np.float32))
    _, attn = msa_forward(z, z, blk, heads=2)
    np.testing.assert_allclose(attn.data.sum(axis=-1), 1.0, atol=1e-6)


def test_msa_query_rows_match_self_attention_rows():
    rng = np.random.default_rng(11)
    blk = init_block(rng, dim=8, attn_dim=8, mlp_hidden=8, dtype=np.float64)
    z = Tensor(rng.standard_normal((3, 5, 8)), dtype=np.float64)
    full_out, full_attn = msa_forward(z, z, blk, heads=2)
    rows = concat([narrow(z, 1, 0, 1), narrow(z, 1, 4, 5)], axis=1)
    out, attn = msa_forward(rows, z, blk, heads=2)
    assert out.shape == (3, 2, 8) and attn.shape == (3, 2, 2, 5)
    np.testing.assert_allclose(out.data, full_out.data[:, [0, 4]], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(attn.data, full_attn.data[:, :, [0, 4]], rtol=1e-12, atol=1e-14)
    with pytest.raises(ShapeError):
        msa_forward(narrow(z, 0, 0, 1), z, blk, heads=2)


def test_prefix_full_equals_sequential():
    cfg = tiny_cfg(depth=3)
    rng = np.random.default_rng(10)
    params = init_backbone(cfg, rng)
    img = rng.random((1, 8, 8)).astype(np.float32)
    acts = prefix_forward(params, img, upto_block=3, cfg=cfg)
    z = tokenize(img, params, cfg)
    for blk in params.blocks:
        z, _ = block_forward(z, blk, cfg.heads)
    np.testing.assert_array_equal(acts[-1].data, z.data)
    assert len(acts) == 4


def test_prefix_single_block():
    cfg = tiny_cfg(depth=3)
    params = init_backbone(cfg, np.random.default_rng(11))
    img = np.zeros((1, 8, 8), dtype=np.float32)
    acts = prefix_forward(params, img, upto_block=1, cfg=cfg)
    assert len(acts) == 2


def test_prefix_budget_out_of_range():
    cfg = tiny_cfg(depth=2)
    params = init_backbone(cfg, np.random.default_rng(12))
    img = np.zeros((1, 8, 8), dtype=np.float32)
    with pytest.raises(BudgetError):
        prefix_forward(params, img, upto_block=3, cfg=cfg)


def test_hook_touches_only_class_row_downstream():
    cfg = tiny_cfg(depth=2)
    rng = np.random.default_rng(13)
    params = init_backbone(cfg, rng)
    img = rng.random((1, 8, 8)).astype(np.float32)

    def zero_cls(l, z, attn):
        if l == 1:
            out = z.data.copy()
            out[0, :] = 0.0
            return Tensor(out)
        return None

    plain = prefix_forward(params, img, 2, cfg)
    hooked = prefix_forward(params, img, 2, cfg, hook=zero_cls)
    np.testing.assert_array_equal(plain[1].data, hooked[1].data)  # block-1 output stored unhooked
    assert not np.array_equal(plain[2].data, hooked[2].data)  # block-2 saw modified class row


def test_prefix_property_for_shorter_budget():
    cfg = tiny_cfg(depth=3)
    rng = np.random.default_rng(14)
    params = init_backbone(cfg, rng)
    img = rng.random((1, 8, 8)).astype(np.float32)
    short = prefix_forward(params, img, 2, cfg)
    full = prefix_forward(params, img, 3, cfg)
    for a, b in zip(short, full):
        np.testing.assert_array_equal(a.data, b.data)


def test_zero_weight_prefix_is_identity_on_tokens():
    cfg = tiny_cfg(depth=2)
    rng = np.random.default_rng(15)
    params = init_backbone(cfg, rng)
    zero_residuals(params)
    img = rng.random((1, 8, 8)).astype(np.float32)
    acts = prefix_forward(params, img, 2, cfg)
    np.testing.assert_allclose(acts[-1].data, acts[0].data, atol=1e-5)


def test_named_tensors_cover_blocks():
    cfg = tiny_cfg(depth=2)
    params = init_backbone(cfg, np.random.default_rng(16))
    names = named_backbone_tensors(params)
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
        acts = prefix_forward(params, imgs, 2, cfg)
        cls = acts[-1].select(1, 0)
        return cross_entropy(cls @ w, labels)

    checked = dict(named_backbone_tensors(params), head=w)
    report = grad_check(loss, checked)
    assert report.passed, report
