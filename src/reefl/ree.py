"""Recurrent early-exit block, shared classifier, and feature modulation.

A single lightweight transformer block is applied recurrently over the
growing queue of class tokens [meta, cls_1, ..., cls_l]. Its first output
token feeds the shared classifier additively with the current class token;
its last output token replaces the backbone's class token before the next
block (feature modulation). No other output token is read, so the block
attends from those two rows only, with keys and values over the whole
queue. The same block parameters serve every depth, so one gradient step
moves all applications at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .backbone import (
    BlockParams,
    init_block,
    mlp_residual,
    msa_forward,
    prefix_forward,
    trunc_normal,
)
from .errors import BudgetError, ConfigError, InputError, ScheduleError, ShapeError
from .numerics import (
    Tensor,
    broadcast_to,
    concat,
    layer_norm,
    matmul,
    narrow,
    no_grad,
    reshape,
    stack,
)

REE_HEADS = 8
REE_ATTN_DIM = 16
REE_MLP_RATIO = 1.35


def ree_mlp_hidden(dim: int) -> int:
    return math.ceil(REE_MLP_RATIO * dim)


@dataclass
class ReeParams:
    """Shared early-exit block plus its meta token and queue positions."""

    block: BlockParams
    z_meta: Tensor
    pos: Tensor  # one row per queue slot, meta slot first


@dataclass
class ClassifierParams:
    """Shared exit classifier: layer norm followed by a linear layer."""

    ln_gamma: Tensor
    ln_beta: Tensor
    weight: Tensor
    bias: Tensor


@dataclass
class ExitSchedule:
    """Which backbone blocks carry exits, and where the shared block runs."""

    exit_blocks: tuple
    depth: int
    ree_everywhere: bool = True

    def __post_init__(self):
        blocks = tuple(int(b) for b in self.exit_blocks)
        object.__setattr__(self, "exit_blocks", blocks)
        if not blocks:
            raise ConfigError("schedule needs at least one exit")
        if any(b2 <= b1 for b1, b2 in zip(blocks, blocks[1:])):
            raise ConfigError(f"exit blocks must be strictly increasing: {blocks}")
        if blocks[0] < 1 or blocks[-1] != self.depth:
            raise ConfigError(
                f"exit blocks {blocks} must lie in [1, {self.depth}] and end at the final block"
            )

    @classmethod
    def every_k(cls, k: int, depth: int, ree_everywhere: bool = True) -> "ExitSchedule":
        if k < 1 or depth % k != 0:
            raise ConfigError(f"depth {depth} is not a multiple of exit stride {k}")
        return cls(tuple(range(k, depth + 1, k)), depth, ree_everywhere)

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


def init_ree(dim: int, pos_rows: int, rng: np.random.Generator, dtype=np.float32) -> ReeParams:
    block = init_block(rng, dim, attn_dim=REE_ATTN_DIM, mlp_hidden=ree_mlp_hidden(dim), dtype=dtype)
    # Residual output projections start at zero so the shared block begins as
    # an identity pass-through (m == queue + positions) and modulation cannot
    # scramble the class-token path of a randomly initialized backbone.
    block.wo.data[:] = 0.0
    block.mlp_w2.data[:] = 0.0
    return ReeParams(
        block=block,
        z_meta=Tensor(trunc_normal(rng, (dim,), dtype=dtype), requires_grad=True),
        pos=Tensor(trunc_normal(rng, (pos_rows, dim), dtype=dtype), requires_grad=True),
    )


def init_classifier(dim: int, num_classes: int, rng: np.random.Generator, dtype=np.float32) -> ClassifierParams:
    # Unit-scale logits at init (weight std 1/sqrt(d) on normalized features);
    # backbone-style 0.02 leaves gradients too weak to break symmetry quickly.
    return ClassifierParams(
        ln_gamma=Tensor(np.ones(dim, dtype=dtype), requires_grad=True),
        ln_beta=Tensor(np.zeros(dim, dtype=dtype), requires_grad=True),
        weight=Tensor(trunc_normal(rng, (dim, num_classes), std=1.0 / math.sqrt(dim), dtype=dtype), requires_grad=True),
        bias=Tensor(np.zeros(num_classes, dtype=dtype), requires_grad=True),
    )


# -- core ops -----------------------------------------------------------------


def ree_forward(queue: list, ree: ReeParams) -> tuple[Tensor, Tensor]:
    """Run the shared block over the token queue; return (m_0, m_last).

    ``queue`` holds [B,d] tensors, meta slot first. Queue positions are
    added rowwise before the block. Keys and values span the whole queue,
    but queries, the attention output, both residuals, LN2 and the MLP run
    only for the first and last queue rows: m_0 feeds the classifier and
    m_last the modulation, and no other row is read.
    """
    q = len(queue)
    if q > ree.pos.shape[0]:
        raise ScheduleError(f"queue length {q} exceeds {ree.pos.shape[0]} queue slots")
    blk = ree.block
    seq = stack(queue, axis=1) + narrow(ree.pos, 0, 0, q)  # [B,q,d]
    normed = layer_norm(seq, blk.ln1_gamma, blk.ln1_beta)

    def ends(x: Tensor) -> Tensor:  # rows 0 and q-1, [B,2,d]
        return concat([narrow(x, 1, 0, 1), narrow(x, 1, q - 1, q)], axis=1)

    attn_out, _ = msa_forward(ends(normed), normed, blk, REE_HEADS)
    out = mlp_residual(ends(seq) + attn_out, blk)
    return out.select(1, 0), out.select(1, 1)


def classify_exit(m0: Tensor, zcls: Tensor, cls: ClassifierParams) -> Tensor:
    """Logits from the modulated meta token added to the current class token."""
    if m0.shape != zcls.shape:
        raise ShapeError(f"classifier inputs disagree: {m0.shape} vs {zcls.shape}")
    h = layer_norm(m0 + zcls, cls.ln_gamma, cls.ln_beta)
    if h.data.ndim == 1:
        h = reshape(h, (1,) + h.shape)
        return matmul(h, cls.weight).select(0, 0) + cls.bias
    return matmul(h, cls.weight) + cls.bias


def modulate(tokens: Tensor, m_last: Tensor) -> Tensor:
    """Replace the class-token row (index 0) with the modulated token.

    All other rows pass through untouched; callers keep the original class
    token for classification, which happens before the replacement.
    """
    if tokens.data.ndim == 2:
        row = reshape(m_last, (1,) + m_last.shape)
        return concat([row, narrow(tokens, 0, 1, tokens.shape[0])], axis=0)
    b, t, d = tokens.shape
    row = reshape(m_last, (b, 1, d))
    return concat([row, narrow(tokens, 1, 1, t)], axis=1)


@dataclass
class ForwardTrace:
    """Everything recorded while running a sub-model with early exits."""

    activations: list = field(default_factory=list)  # z^0..z^r, pre-modulation
    queue: list = field(default_factory=list)  # [meta, class tokens...]
    exit_logits: list = field(default_factory=list)  # per exit within budget, [B,K]
    exit_blocks: list = field(default_factory=list)  # block index per recorded exit
    modulated: dict = field(default_factory=dict)  # block -> (m_0, m_last)
    attention: dict = field(default_factory=dict)  # block -> forward attention
    batch_size: int = 0


def forward_with_exits(view, images: np.ndarray, schedule: ExitSchedule, modulation: bool = True) -> ForwardTrace:
    """Run blocks 1..budget, applying the shared exit block per the schedule.

    At each block where the shared block runs, the class token joins the
    queue; at exit blocks logits are recorded from the original class token
    before the modulated token replaces it for the next block.
    """
    images = np.asarray(images)
    if images.ndim != 4:
        raise InputError(f"expected a [B,C,H,W] batch, got shape {images.shape}")
    if images.shape[0] == 0:
        raise InputError("empty batch")
    budget = view.budget
    if budget < schedule.exit_blocks[0]:
        raise BudgetError(f"budget {budget} does not cover the first exit at block {schedule.exit_blocks[0]}")
    exit_set = frozenset(schedule.exit_blocks)
    b = images.shape[0]
    d = view.config.dim

    trace = ForwardTrace(batch_size=b)
    meta = broadcast_to(reshape(view.ree.z_meta, (1, d)), (b, d))
    trace.queue.append(meta)

    def hook(l: int, z: Tensor, attn: Tensor) -> Optional[Tensor]:
        trace.attention[l] = attn
        if not (schedule.ree_everywhere or l in exit_set):
            return None
        zcls = z.select(1, 0)
        trace.queue.append(zcls)
        m0, m_last = ree_forward(trace.queue, view.ree)
        trace.modulated[l] = (m0, m_last)
        if l in exit_set:
            trace.exit_logits.append(classify_exit(m0, zcls, view.classifier))
            trace.exit_blocks.append(l)
        if modulation:
            return modulate(z, m_last)
        return None

    trace.activations = prefix_forward(view.backbone, images, budget, view.config, hook)
    return trace


@dataclass
class AttnMaps:
    """Mean-over-heads first-row attention (self entry removed), length n."""

    query_x: np.ndarray
    query_m: Optional[np.ndarray]
    query_c: Optional[np.ndarray]


def attention_maps(trace: ForwardTrace, block: int, view) -> AttnMaps:
    """Diagnostic attention of block ``block`` under three query tokens.

    Queries: the previous class token, the modulated class token, and the
    classifier input (modulated meta + class token). Keys are always the
    previous block's patch tokens; the first row of the resulting map is
    returned without its self entry, averaged over heads.
    """
    if not 1 <= block < len(trace.activations):
        raise IndexError(f"block {block} was not executed")
    prev = trace.activations[block - 1]
    blk = view.backbone.blocks[block - 1]
    b, t, d = prev.shape
    ctx = narrow(prev, 1, 1, t)

    def attend(query: Tensor) -> np.ndarray:
        seq = concat([reshape(query, (b, 1, d)), ctx], axis=1)
        normed = layer_norm(seq, blk.ln1_gamma, blk.ln1_beta)
        _, attn = msa_forward(narrow(normed, 1, 0, 1), normed, blk, view.config.heads)
        return attn.data[:, :, 0, 1:].mean(axis=1)

    with no_grad():
        qx = attend(prev.select(1, 0))
        if block in trace.modulated:
            m0, m_last = trace.modulated[block]
            zcls = trace.activations[block].select(1, 0)
            qm = attend(m_last)
            qc = attend(m0 + zcls)
        else:
            qm = qc = None
    return AttnMaps(query_x=qx, query_m=qm, query_c=qc)


# -- parameter naming ---------------------------------------------------------

_BLOCK_FIELDS = (
    "ln1_gamma", "ln1_beta", "wq", "wk", "wv", "wo",
    "ln2_gamma", "ln2_beta", "mlp_w1", "mlp_w2",
)


def named_ree_tensors(ree: ReeParams) -> dict[str, Tensor]:
    out = {f"ree.{f}": getattr(ree.block, f) for f in _BLOCK_FIELDS}
    out["ree.z_meta"] = ree.z_meta
    out["ree.pos"] = ree.pos
    return out


def named_classifier_tensors(cls: ClassifierParams) -> dict[str, Tensor]:
    return {
        "classifier.ln_gamma": cls.ln_gamma,
        "classifier.ln_beta": cls.ln_beta,
        "classifier.weight": cls.weight,
        "classifier.bias": cls.bias,
    }
