"""Toy vision-transformer backbone: its shape, parameters and layers.

Tokenizer + positional embeddings + class token, followed by a stack of
architecturally identical blocks (pre-norm attention and MLP, both
residual). ``ree.forward_with_exits`` runs blocks 1..r of a client with
budget r, with the shared exit block between them.

Parameters live in one flat ``name -> Tensor`` dict: ``patch_embed``,
``pos_embed``, ``class_token`` and ``block{l}.{field}``; forward functions
read a block's tensors under its name prefix. ``ModelConfig`` describes
the whole model's shape, exit blocks included.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import (
    Tensor,
    broadcast_to,
    concat,
    gelu,
    layer_norm,
    matmul,
    rearrange,
    reshape,
    softmax,
)

LN_EPS = 1e-5
INIT_STD = 0.02
MLP_RATIO = 4


@dataclass(kw_only=True)
class ModelConfig:
    """The model's whole shape: the backbone plus where the exits sit.

    ``exit_blocks`` are the backbone blocks that carry an exit; the shared
    exit block runs after every block, or after exit blocks only when
    ``ree_everywhere`` is false. Field order is the checkpoint header's
    key order.
    """

    depth: int
    dim: int
    heads: int
    patch_size: int
    num_classes: int
    image_size: int = 16
    image_channels: int = 1
    exit_blocks: tuple
    ree_everywhere: bool = True

    def __post_init__(self):
        for key in ("depth", "dim", "heads", "patch_size", "image_channels"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image size {self.image_size} not divisible by patch size {self.patch_size}"
            )
        if self.num_classes < 2:
            raise ConfigError("need at least 2 classes")
        blocks = self.exit_blocks = tuple(int(b) for b in self.exit_blocks)
        if not blocks:
            raise ConfigError("schedule needs at least one exit")
        if any(b2 <= b1 for b1, b2 in zip(blocks, blocks[1:])):
            raise ConfigError(f"exit blocks must be strictly increasing: {blocks}")
        if blocks[0] < 1 or blocks[-1] != self.depth:
            raise ConfigError(
                f"exit blocks {blocks} must lie in [1, {self.depth}] and end at the final block"
            )

    @property
    def num_exits(self) -> int:
        return len(self.exit_blocks)

    @property
    def pos_rows(self) -> int:
        """Queue slots: one per backbone block plus the meta slot, or one per
        exit plus the meta slot when the shared block runs at exits only."""
        return (self.depth if self.ree_everywhere else self.num_exits) + 1

    def exits_within(self, budget: int) -> int:
        return sum(1 for b in self.exit_blocks if b <= budget)

    @property
    def num_patches(self) -> int:
        side = self.image_size // self.patch_size
        return side * side

    @property
    def num_tokens(self) -> int:
        return self.num_patches + 1

    @property
    def patch_dim(self) -> int:
        return self.image_channels * self.patch_size * self.patch_size


def trunc_normal(rng: np.random.Generator, shape, std: float = INIT_STD, dtype=np.float32) -> np.ndarray:
    vals = rng.normal(0.0, std, size=shape)
    return np.clip(vals, -2 * std, 2 * std).astype(dtype)


def init_block(rng: np.random.Generator, prefix: str, dim: int, attn_dim: int, mlp_hidden: int, dtype=np.float32) -> dict[str, Tensor]:
    """One pre-norm block (MSA then MLP, both residual) as ``prefix + field`` -> tensor.

    This is the one list of block fields; weights are drawn in field order.
    """
    ones = lambda: np.ones(dim, dtype=dtype)
    zeros = lambda: np.zeros(dim, dtype=dtype)
    w = lambda *s: trunc_normal(rng, s, dtype=dtype)
    fields = {
        "ln1_gamma": ones(), "ln1_beta": zeros(),
        "wq": w(dim, attn_dim), "wk": w(dim, attn_dim), "wv": w(dim, attn_dim), "wo": w(attn_dim, dim),
        "ln2_gamma": ones(), "ln2_beta": zeros(),
        "mlp_w1": w(dim, mlp_hidden), "mlp_w2": w(mlp_hidden, dim),
    }
    return {prefix + f: Tensor(v, requires_grad=True) for f, v in fields.items()}


def block_prefix(l: int) -> str:
    """Name prefix of backbone block ``l`` (1-indexed, matching budgets)."""
    return f"block{l}."


def covering_budget(name: str) -> int:
    """Lowest client budget that holds parameter ``name``.

    Block l's parameters need budget l; every other name (embeddings, the
    shared exit stack) is held by every budget.
    """
    group, _, _ = name.partition(".")
    return int(group[len("block"):]) if group.startswith("block") else 1


def init_backbone(cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32) -> dict[str, Tensor]:
    d = cfg.dim
    params = {
        "patch_embed": Tensor(trunc_normal(rng, (cfg.patch_dim, d), dtype=dtype), requires_grad=True),
        "pos_embed": Tensor(trunc_normal(rng, (cfg.num_tokens, d), dtype=dtype), requires_grad=True),
        "class_token": Tensor(trunc_normal(rng, (d,), dtype=dtype), requires_grad=True),
    }
    for l in range(1, cfg.depth + 1):
        params.update(init_block(rng, block_prefix(l), d, attn_dim=d, mlp_hidden=MLP_RATIO * d, dtype=dtype))
    return params


# -- forward ---------------------------------------------------------------


def extract_patches(images: np.ndarray, patch_size: int) -> np.ndarray:
    """[B,C,H,W] -> [B, n, C*p*p], row-major over the patch grid."""
    b, c, h, w = images.shape
    if h % patch_size or w % patch_size:
        raise ConfigError(f"image {h}x{w} not divisible by patch size {patch_size}")
    hp, wp = h // patch_size, w // patch_size
    x = images.reshape(b, c, hp, patch_size, wp, patch_size)
    x = x.transpose(0, 2, 4, 1, 3, 5)
    return np.ascontiguousarray(x.reshape(b, hp * wp, c * patch_size * patch_size))


def tokenize(images, params: dict, cfg: ModelConfig) -> Tensor:
    """Project patches, prepend the class token, add positional embeddings.

    A batch [B,C,H,W] becomes tokens [B,(n+1),d].
    """
    arr = images.data if isinstance(images, Tensor) else np.asarray(images)
    if arr.ndim != 4:
        raise ShapeError(f"expected [B,C,H,W], got {arr.shape}")
    patch_embed = params["patch_embed"]
    patches = extract_patches(arr.astype(patch_embed.dtype, copy=False), cfg.patch_size)
    tokens = matmul(Tensor(patches), patch_embed)  # [B,n,d]
    b = tokens.shape[0]
    cls = broadcast_to(reshape(params["class_token"], (1, 1, cfg.dim)), (b, 1, cfg.dim))
    z = concat([cls, tokens], axis=1)
    return z + params["pos_embed"]


def msa_forward(zq: Tensor, zkv: Tensor, params: dict, prefix: str, heads: int) -> tuple[Tensor, Tensor]:
    """Scaled dot-product multi-head attention of query tokens over key/value tokens.

    Reads the block's ``wq``/``wk``/``wv``/``wo`` under ``prefix``.
    Self-attention passes the same tensor as ``zq`` and ``zkv``; a caller that
    reads only some output rows passes just those rows as ``zq``. Both are
    [B,T,d]. Returns (output, attention): the output has ``zq``'s shape, and
    attention rows are softmax-normalized and shaped [B,heads,Tq,Tkv].
    """
    if zq.data.ndim != 3 or zkv.data.ndim != 3:
        raise ShapeError(f"token tensors must be [B,T,d], got {zq.shape} and {zkv.shape}")
    if zkv.shape[0] != zq.shape[0]:
        raise ShapeError(f"query tokens {zq.shape} and key/value tokens {zkv.shape} disagree")
    b, tq, _ = zq.shape
    tkv = zkv.shape[1]
    proj = params[prefix + "wq"].shape[1]
    if proj % heads != 0:
        raise ShapeError(f"attention width {proj} not divisible by {heads} heads")
    hd = proj // heads
    scale = 1.0 / float(np.sqrt(hd))

    def split(x: Tensor, t: int, axes) -> Tensor:  # [B,t,proj] -> heads-major layout
        return rearrange(x, axes, split=(b, t, heads, hd))

    q = split(matmul(zq, params[prefix + "wq"]), tq, (0, 2, 1, 3))  # [B,h,Tq,hd]
    k_t = split(matmul(zkv, params[prefix + "wk"]), tkv, (0, 2, 3, 1))  # [B,h,hd,Tkv]
    v = split(matmul(zkv, params[prefix + "wv"]), tkv, (0, 2, 1, 3))  # [B,h,Tkv,hd]
    attn = softmax(matmul(q, k_t) * scale, axis=-1)  # [B,h,Tq,Tkv]
    ctx = matmul(attn, v)  # [B,h,Tq,hd]
    merged = rearrange(ctx, (0, 2, 1, 3), merge=(b, tq, proj))
    return matmul(merged, params[prefix + "wo"]), attn


def mlp_residual(zbar: Tensor, params: dict, prefix: str, eps: float = LN_EPS) -> Tensor:
    """The block's second half: zbar + MLP(LN2(zbar)), row by row."""
    h = layer_norm(zbar, params[prefix + "ln2_gamma"], params[prefix + "ln2_beta"], eps)
    return zbar + matmul(gelu(matmul(h, params[prefix + "mlp_w1"])), params[prefix + "mlp_w2"])


def block_forward(z: Tensor, params: dict, prefix: str, heads: int, eps: float = LN_EPS) -> tuple[Tensor, Tensor]:
    """The pre-norm block named ``prefix``; shape preserved. Returns (tokens, attention)."""
    normed = layer_norm(z, params[prefix + "ln1_gamma"], params[prefix + "ln1_beta"], eps)
    attn_out, attn = msa_forward(normed, normed, params, prefix, heads)
    return mlp_residual(z + attn_out, params, prefix, eps), attn
