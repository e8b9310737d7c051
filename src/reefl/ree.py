"""Recurrent early-exit block, shared classifier, and the forward loop.

``forward_with_exits`` runs backbone blocks 1..budget. After each block
where the config says, one lightweight transformer block is applied
recurrently over the growing queue of class tokens [meta, cls_1, ...,
cls_l]. Its first output token feeds the shared classifier additively with
the current class token; its last output token replaces the backbone's
class token before the next block (feature modulation). No other output
token is read, so the block attends from those two rows only, with keys
and values over the whole queue. The same block parameters serve every
depth, so one gradient step moves all applications at once.

The shared exit stack's parameters sit in the model's flat name -> tensor
dict as ``ree.{block field}``, ``ree.z_meta``, ``ree.pos`` and
``classifier.{ln_gamma,ln_beta,weight,bias}``. Every client holds and
trains them whatever its budget, and they are all that frozen mode trains
and transfers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .backbone import (
    block_forward,
    block_prefix,
    init_block,
    mlp_residual,
    msa_forward,
    tokenize,
    trunc_normal,
)
from .errors import BudgetError, InputError, ScheduleError, ShapeError
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
    take,
)

REE_HEADS = 8
REE_ATTN_DIM = 16
REE_MLP_RATIO = 1.35


def ree_mlp_hidden(dim: int) -> int:
    return math.ceil(REE_MLP_RATIO * dim)


def is_shared(name: str) -> bool:
    """Whether parameter ``name`` belongs to the shared exit stack."""
    return name.startswith(("ree.", "classifier."))


def init_ree(dim: int, pos_rows: int, rng: np.random.Generator, dtype=np.float32) -> dict[str, Tensor]:
    params = init_block(rng, "ree.", dim, attn_dim=REE_ATTN_DIM, mlp_hidden=ree_mlp_hidden(dim), dtype=dtype)
    # Residual output projections start at zero so the shared block begins as
    # an identity pass-through (m == queue + positions) and modulation cannot
    # scramble the class-token path of a randomly initialized backbone.
    params["ree.wo"].data[:] = 0.0
    params["ree.mlp_w2"].data[:] = 0.0
    params["ree.z_meta"] = Tensor(trunc_normal(rng, (dim,), dtype=dtype), requires_grad=True)
    # one row per queue slot, meta slot first
    params["ree.pos"] = Tensor(trunc_normal(rng, (pos_rows, dim), dtype=dtype), requires_grad=True)
    return params


def init_classifier(dim: int, num_classes: int, rng: np.random.Generator, dtype=np.float32) -> dict[str, Tensor]:
    """Shared exit classifier: layer norm followed by a linear layer."""
    # Unit-scale logits at init (weight std 1/sqrt(d) on normalized features);
    # backbone-style 0.02 leaves gradients too weak to break symmetry quickly.
    return {
        "classifier.ln_gamma": Tensor(np.ones(dim, dtype=dtype), requires_grad=True),
        "classifier.ln_beta": Tensor(np.zeros(dim, dtype=dtype), requires_grad=True),
        "classifier.weight": Tensor(
            trunc_normal(rng, (dim, num_classes), std=1.0 / math.sqrt(dim), dtype=dtype), requires_grad=True
        ),
        "classifier.bias": Tensor(np.zeros(num_classes, dtype=dtype), requires_grad=True),
    }


# -- core ops -----------------------------------------------------------------


def ree_forward(queue: list, params: dict) -> tuple[Tensor, Tensor]:
    """Run the shared block over the token queue; return (m_0, m_last).

    ``queue`` holds [B,d] tensors, meta slot first. Queue positions are
    added rowwise before the block. Keys and values span the whole queue,
    but queries, the attention output, both residuals, LN2 and the MLP run
    only for the first and last queue rows: m_0 feeds the classifier and
    m_last the modulation, and no other row is read.
    """
    q = len(queue)
    pos = params["ree.pos"]
    if q > pos.shape[0]:
        raise ScheduleError(f"queue length {q} exceeds {pos.shape[0]} queue slots")
    seq = stack(queue, axis=1) + narrow(pos, 0, 0, q)  # [B,q,d]
    normed = layer_norm(seq, params["ree.ln1_gamma"], params["ree.ln1_beta"])

    ends = (0, q - 1)  # the rows read: [B,2,d]
    attn_out, _ = msa_forward(take(normed, ends, axis=1), normed, params, "ree.", REE_HEADS)
    out = mlp_residual(take(seq, ends, axis=1) + attn_out, params, "ree.")
    return out.select(1, 0), out.select(1, 1)


def classify_exit(m0: Tensor, zcls: Tensor, params: dict) -> Tensor:
    """Logits from the modulated meta token added to the current class token."""
    if m0.shape != zcls.shape:
        raise ShapeError(f"classifier inputs disagree: {m0.shape} vs {zcls.shape}")
    h = layer_norm(m0 + zcls, params["classifier.ln_gamma"], params["classifier.ln_beta"])
    return matmul(h, params["classifier.weight"]) + params["classifier.bias"]


def modulate(tokens: Tensor, m_last: Tensor) -> Tensor:
    """Replace the class-token row (index 0) with the modulated token.

    All other rows pass through untouched; callers keep the original class
    token for classification, which happens before the replacement.
    """
    b, t, d = tokens.shape
    row = reshape(m_last, (b, 1, d))
    return concat([row, narrow(tokens, 1, 1, t)], axis=1)


@dataclass
class ForwardTrace:
    """What a forward with early exits recorded."""

    activations: list = field(default_factory=list)  # z^0..z^r, pre-modulation
    exit_logits: list = field(default_factory=list)  # per exit within budget, [B,K]
    modulated: dict = field(default_factory=dict)  # block -> (m_0, m_last)


def forward_with_exits(view, images: np.ndarray, modulation: bool = True) -> ForwardTrace:
    """Tokenize, then run blocks 1..budget with the shared exit block where the config says.

    Raw block outputs are recorded, index 0 holding the tokens. Where the
    shared block runs, the class token joins the queue; at exit blocks
    logits are recorded from that class token, then the modulated token
    replaces it for the next block. ``view`` is a model: its ``params``
    dict, ``config`` and ``budget`` are read.
    """
    images = np.asarray(images)
    if images.ndim != 4:
        raise InputError(f"expected a [B,C,H,W] batch, got shape {images.shape}")
    if images.shape[0] == 0:
        raise InputError("empty batch")
    budget, config = view.budget, view.config
    expected = (config.image_channels, config.image_size, config.image_size)
    if images.shape[1:] != expected:
        raise InputError(
            f"images have [C,H,W] shape {images.shape[1:]}, but the model expects {expected}"
        )
    if not config.exit_blocks[0] <= budget <= config.depth:
        raise BudgetError(f"budget {budget} outside [first exit {config.exit_blocks[0]}, depth {config.depth}]")
    exit_set = frozenset(config.exit_blocks)
    b = images.shape[0]
    d = config.dim

    params = view.params
    trace = ForwardTrace()
    queue = [broadcast_to(reshape(params["ree.z_meta"], (1, d)), (b, d))]
    z = tokenize(images, params, config)
    trace.activations.append(z)
    for l in range(1, budget + 1):
        z, _ = block_forward(z, params, block_prefix(l), config.heads)
        trace.activations.append(z)
        if not (config.ree_everywhere or l in exit_set):
            continue
        zcls = z.select(1, 0)
        queue.append(zcls)
        m0, m_last = ree_forward(queue, params)
        trace.modulated[l] = (m0, m_last)
        if l in exit_set:
            trace.exit_logits.append(classify_exit(m0, zcls, params))
        if modulation:
            z = modulate(z, m_last)
    return trace


def count_correct(view, batches, modulation: bool = True) -> np.ndarray:
    """Correct top-1 predictions of every exit, as int64 counts, over
    example-set batches (see ``data.examples``) run forward without a graph."""
    correct = np.zeros(view.config.num_exits, dtype=np.int64)
    with no_grad():
        for batch in batches:
            trace = forward_with_exits(view, batch.image, modulation)
            for e, logits in enumerate(trace.exit_logits):
                correct[e] += int((np.argmax(logits.data, axis=1) == batch.label).sum())
    return correct


def attention_maps(trace: ForwardTrace, block: int, view) -> dict[str, np.ndarray]:
    """Diagnostic attention of block ``block`` under three query tokens.

    Queries: ``"x"`` the previous class token, ``"m"`` the modulated class
    token and ``"c"`` the classifier input (modulated meta + class token);
    ``"m"`` and ``"c"`` are present only where the shared block ran. Keys
    are always the previous block's patch tokens; each map is the first row
    of the attention without its self entry, averaged over heads, [B,n].
    """
    if not 1 <= block < len(trace.activations):
        raise IndexError(f"block {block} was not executed")
    prev = trace.activations[block - 1]
    params, prefix = view.params, block_prefix(block)
    b, t, d = prev.shape
    ctx = narrow(prev, 1, 1, t)

    def attend(query: Tensor) -> np.ndarray:
        seq = concat([reshape(query, (b, 1, d)), ctx], axis=1)
        normed = layer_norm(seq, params[prefix + "ln1_gamma"], params[prefix + "ln1_beta"])
        _, attn = msa_forward(narrow(normed, 1, 0, 1), normed, params, prefix, view.config.heads)
        return attn.data[:, :, 0, 1:].mean(axis=1)

    with no_grad():
        maps = {"x": attend(prev.select(1, 0))}
        if block in trace.modulated:
            m0, m_last = trace.modulated[block]
            maps["m"] = attend(m_last)
            maps["c"] = attend(m0 + trace.activations[block].select(1, 0))
    return maps
