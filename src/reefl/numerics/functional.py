"""Differentiable neural-net operations built on the tensor tape.

Each op is a fused primitive with a hand-written backward rule that takes
the gradient of the op's output and captures only the arrays it reads; all
rules are covered by central-difference checks in the test suite.
"""
from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor, _from_op, _node_of

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))
_GELU_C = 0.044715


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    d = x.data
    # th = tanh(sqrt(2/pi) * (d + c * d * d * d)), built in one buffer in the
    # same operation order. d * d * d, not d**3: numpy evaluates an integer
    # power of a float array with libm pow per element, about 100x slower.
    th = np.multiply(_GELU_C, d, out=np.empty_like(d))  # an array even when d is 0-d
    th *= d
    th *= d
    np.add(d, th, out=th)
    th *= _SQRT_2_OVER_PI
    np.tanh(th, out=th)
    data = 0.5 * d
    one_plus_th = 1.0 + th
    data *= one_plus_th
    node = _node_of(x)
    if node is None:
        return _from_op(data)
    # The rule keeps one derivative array instead of both d and th: the
    # plain formula 0.5 * (1 + th) + 0.5 * d * (1 - th * th) * sqrt(2/pi)
    # * (1 + 3 * c * d * d), built in th's buffer in the same operation order.
    # Reusing buffers keeps forward from freeing and reallocating arrays.
    half_d = np.multiply(0.5, d, out=np.empty_like(d))
    deriv = th
    deriv *= th
    np.subtract(1.0, deriv, out=deriv)
    deriv *= half_d
    deriv *= _SQRT_2_OVER_PI
    poly = np.multiply(3.0 * _GELU_C, d, out=half_d)
    poly *= d
    poly += 1.0
    deriv *= poly
    one_plus_th *= 0.5
    deriv += one_plus_th

    def backward(g):
        node._accumulate(g * deriv)

    return _from_op(data, (node,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax; each slice along ``axis`` sums to 1."""
    y = x.data - np.maximum.reduce(x.data, axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=axis, keepdims=True)
    node = _node_of(x)
    if node is None:
        return _from_op(y)

    def backward(g):
        dot = np.add.reduce(g * y, axis=axis, keepdims=True)
        node._accumulate(y * (g - dot))

    return _from_op(y, (node,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    data = x.data - x.data.max(axis=axis, keepdims=True)
    data -= np.log(np.exp(data).sum(axis=axis, keepdims=True))
    node = _node_of(x)
    if node is None:
        return _from_op(data)

    def backward(g):
        p = np.exp(data)
        node._accumulate(g - p * g.sum(axis=axis, keepdims=True))

    return _from_op(data, (node,), backward)


def _mean_last(x: np.ndarray) -> np.ndarray:
    """Bitwise ``x.mean(axis=-1, keepdims=True)`` without numpy's Python
    wrapper: the sum divided in place by an ``np.intp`` count, as numpy's
    ``_mean`` does."""
    total = np.add.reduce(x, axis=-1, keepdims=True)
    return np.true_divide(total, np.intp(x.shape[-1]), out=total, casting="unsafe")


def _centred_var(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x - mean`` and the biased variance over the last axis.

    The variance is bitwise ``np.var(x, -1, keepdims=True)``: the mean of
    the squares, computed as ``_mean_last`` computes it.
    """
    xc = x - _mean_last(x)
    return xc, _mean_last(np.square(xc))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm affine params must have shape ({d},)")
    if eps <= 0:
        raise ShapeError("layer_norm eps must be positive")
    xc, var = _centred_var(x.data)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = np.multiply(xc, inv, out=xc)
    data = gamma.data * xhat + beta.data
    nx, ngamma, nbeta = _node_of(x), _node_of(gamma), _node_of(beta)
    if nx is None and ngamma is None and nbeta is None:
        return _from_op(data)
    gamma_data = gamma.data

    def backward(g):
        axes = tuple(range(g.ndim - 1))
        if ngamma is not None:
            ngamma._accumulate(np.add.reduce(g * xhat, axis=axes))
        if nbeta is not None:
            nbeta._accumulate(np.add.reduce(g, axis=axes))
        if nx is not None:
            dxhat = g * gamma_data
            m1 = _mean_last(dxhat)
            m2 = _mean_last(dxhat * xhat)
            nx._accumulate(inv * (dxhat - m1 - xhat * m2))

    return _from_op(data, (nx, ngamma, nbeta), backward)


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
    node = _node_of(logits)
    if node is None:
        return _from_op(data)

    def backward(g):
        p = np.exp(logp)
        p[rows, labels] -= 1.0
        node._accumulate(g * p / batch)

    return _from_op(data, (node,), backward)
