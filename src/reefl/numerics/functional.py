"""Differentiable neural-net operations built on the tensor tape.

Each op is a fused primitive with a hand-written backward rule; all rules
are covered by central-difference checks in the test suite.
"""
from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor, _from_op

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))
_GELU_C = 0.044715
PROB_FLOOR = 1e-12  # probabilities are floored at this inside logs


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    d = x.data
    # d * d * d, not d**3: numpy evaluates an integer power of a float array
    # with libm pow per element, about 100x slower.
    inner = _SQRT_2_OVER_PI * (d + _GELU_C * d * d * d)
    th = np.tanh(inner)
    data = 0.5 * d * (1.0 + th)

    def make(out):
        def run():
            if x.requires_grad:
                sech2 = 1.0 - th * th
                deriv = 0.5 * (1.0 + th) + 0.5 * d * sech2 * _SQRT_2_OVER_PI * (
                    1.0 + 3.0 * _GELU_C * d * d
                )
                x._accumulate(out.grad * deriv)

        return run

    return _from_op(data, (x,), make)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax; each slice along ``axis`` sums to 1."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def make(out):
        def run():
            if x.requires_grad:
                g = out.grad
                dot = (g * y).sum(axis=axis, keepdims=True)
                x._accumulate(y * (g - dot))

        return run

    return _from_op(y, (x,), make)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse

    def make(out):
        def run():
            if x.requires_grad:
                g = out.grad
                p = np.exp(data)
                x._accumulate(g - p * g.sum(axis=axis, keepdims=True))

        return run

    return _from_op(data, (x,), make)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm affine params must have shape ({d},)")
    if eps <= 0:
        raise ShapeError("layer_norm eps must be positive")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = gamma.data * xhat + beta.data

    def make(out):
        def run():
            g = out.grad
            if gamma.requires_grad:
                axes = tuple(range(g.ndim - 1))
                gamma._accumulate((g * xhat).sum(axis=axes))
            if beta.requires_grad:
                axes = tuple(range(g.ndim - 1))
                beta._accumulate(g.sum(axis=axes))
            if x.requires_grad:
                dxhat = g * gamma.data
                m1 = dxhat.mean(axis=-1, keepdims=True)
                m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
                x._accumulate(inv * (dxhat - m1 - xhat * m2))

        return run

    return _from_op(data, (x, gamma, beta), make)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label].

    ``labels`` is a constant integer vector; backward w.r.t. logits is
    (softmax - onehot) / batch.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects [batch, classes], got {logits.shape}")
    labels = np.asarray(labels)
    batch, k = logits.shape
    if labels.shape != (batch,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {batch}")
    if labels.min() < 0 or labels.max() >= k:
        raise IndexError(f"label outside [0, {k})")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    rows = np.arange(batch)
    data = np.asarray(-logp[rows, labels].mean(), dtype=logits.dtype)

    def make(out):
        def run():
            if logits.requires_grad:
                p = np.exp(logp)
                p[rows, labels] -= 1.0
                logits._accumulate(out.grad * p / batch)

        return run

    return _from_op(data, (logits,), make)


def kl_divergence(p: Tensor, q: Tensor) -> Tensor:
    """sum p * log(p / q) with the 0*log(0) := 0 convention.

    Probabilities are floored at PROB_FLOOR inside the logs, which keeps the
    value finite when q has (near-)zeros.
    """
    if p.shape != q.shape:
        raise ShapeError(f"kl_divergence shape mismatch: {p.shape} vs {q.shape}")
    pc = np.maximum(p.data, PROB_FLOOR)
    qc = np.maximum(q.data, PROB_FLOOR)
    logratio = np.log(pc) - np.log(qc)
    terms = np.where(p.data > 0, p.data * logratio, 0.0)
    data = np.asarray(terms.sum(), dtype=p.dtype)

    def make(out):
        def run():
            g = out.grad
            if p.requires_grad:
                p._accumulate(g * np.where(p.data > 0, logratio + 1.0, 0.0))
            if q.requires_grad:
                q._accumulate(g * np.where(p.data > 0, -p.data / qc, 0.0))

        return run

    return _from_op(data, (p, q), make)
