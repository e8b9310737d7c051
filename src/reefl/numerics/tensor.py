"""Dense tensors with reverse-mode automatic differentiation.

A define-by-run tape: every operation records a backward rule on its output
tensor, and ``Tensor.backward()`` calls each rule with that output's
gradient, in reverse topological order. A rule holds its inputs, never its
output, so the graph is acyclic and reference counting frees it as soon as
the last output is dropped. Gradients accumulate (a tensor consumed twice
receives the sum of both path gradients); an incoming gradient array is
stored as is, so gradient arrays may alias one another and none is ever
written in place.

Graphs are single-use. Backward frees activations and gradients as it goes:
once an op output's rule has run, the output drops its rule, its parents
and its gradient, so only leaves keep ``.grad``. A second ``backward()``
that reaches a consumed op output raises ``StateError``.

``narrow`` and ``broadcast_to`` return views of their input's data. Storage
defaults to float32; pass float64 data for high-precision gradient checks.
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import NonFiniteError, ShapeError, StateError

DEFAULT_DTYPE = np.float32

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (forward-only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _guard_finite(data: np.ndarray) -> None:
    if not np.isfinite(data).all():
        raise NonFiniteError("operation produced NaN or Inf")


def _coerce(data, dtype) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(DEFAULT_DTYPE)
    return arr


class Tensor:
    """N-dimensional real array participating in a gradient graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _coerce(data, dtype)
        _guard_finite(self.data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __float__(self) -> float:
        return self.item()

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- graph ----------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        # Never in place: the stored array may be shared with other tensors.
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=False)
        else:
            self.grad = (self.grad + g).astype(self.data.dtype, copy=False)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        With no explicit seed the tensor must be scalar-sized; the seed is 1.
        The graph is consumed: afterwards only leaves hold gradients.
        """
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() without seed requires a scalar tensor")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ShapeError("seed gradient shape mismatch")

        # Post-order DFS. This visiting order fixes the order in which a
        # tensor's gradients are summed, so it fixes the output bits. Nodes
        # without a rule (leaves, constants) are not pushed, which leaves the
        # order of the other nodes unchanged; a consumed node keeps a rule
        # (one that raises) so that reaching it again is an error.
        topo: list[Tensor] = []
        visited: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
            elif node not in visited:
                visited.add(node)
                stack.append((node, True))
                for p in node._parents:
                    if p._backward is not None and p not in visited:
                        stack.append((p, False))
        del visited

        # The graph is single-use: once an op output's rule has run, the node
        # lets go of its rule, parents and gradient, so activations and
        # gradients are freed while the sweep goes on. Leaves keep ``grad``.
        self._accumulate(grad)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._parents = ()
            node._backward = _consumed

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_lift(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not a graph op; use mul with a reciprocal")
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tmean(self, axis=axis, keepdims=keepdims)

    def narrow(self, axis: int, start: int, stop: int) -> "Tensor":
        return narrow(self, axis, start, stop)

    def select(self, axis: int, index: int) -> "Tensor":
        """Single index along ``axis``; the axis is removed."""
        out = narrow(self, axis, index, index + 1)
        new_shape = out.shape[:axis] + out.shape[axis + 1 :]
        return reshape(out, new_shape)


def _consumed(g) -> None:
    raise StateError("backward() through a graph that an earlier backward() consumed")


def _lift(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _from_op(data: np.ndarray, parents: Sequence[Tensor], backward, guard: bool = True) -> Tensor:
    """Build an op output; attach ``backward(grad_of_output)`` only when needed.

    Pure data-movement ops (reshape, slice, concat, ...) pass guard=False:
    they cannot introduce non-finite values, their inputs were already checked.
    """
    if guard:
        _guard_finite(data)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._parents = ()
    out._backward = None
    out.requires_grad = False
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, dim in enumerate(shape):
        if dim == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# -- elementwise / structural ops ----------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _lift(b, a.dtype)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _from_op(data, (a, b), backward)


def sub(a: Tensor, b) -> Tensor:
    b = _lift(b, a.dtype)
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return _from_op(data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        s = float(b)
        data = a.data * s

        def backward_scalar(g):
            if a.requires_grad:
                a._accumulate(g * s)

        return _from_op(data, (a,), backward_scalar)

    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _from_op(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul operands must have rank >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.shape))

    return _from_op(data, (a, b), backward)


def transpose(t: Tensor, axes: tuple[int, ...]) -> Tensor:
    axes = tuple(axes)
    data = np.transpose(t.data, axes)

    def backward(g):
        if t.requires_grad:
            inverse = sorted(range(len(axes)), key=axes.__getitem__)
            t._accumulate(np.transpose(g, inverse))

    return _from_op(data, (t,), backward, guard=False)


def reshape(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = t.data.reshape(shape)
    old = t.shape

    def backward(g):
        if t.requires_grad:
            t._accumulate(g.reshape(old))

    return _from_op(data, (t,), backward, guard=False)


def broadcast_to(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = np.broadcast_to(t.data, shape)

    def backward(g):
        if t.requires_grad:
            t._accumulate(_unbroadcast(g, t.shape))

    return _from_op(data, (t,), backward, guard=False)


def concat(tensors: Iterable[Tensor], axis: int) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ShapeError("concat of zero tensors")
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]

    def backward(g):
        offset = 0
        index: list = [slice(None)] * g.ndim
        for t, size in zip(ts, sizes):
            if t.requires_grad:
                index[axis] = slice(offset, offset + size)
                t._accumulate(g[tuple(index)])
            offset += size

    return _from_op(data, ts, backward, guard=False)


def stack(tensors: Iterable[Tensor], axis: int) -> Tensor:
    ts = list(tensors)
    expanded = []
    for t in ts:
        shape = t.shape[:axis] + (1,) + t.shape[axis:]
        expanded.append(reshape(t, shape))
    return concat(expanded, axis)


def narrow(t: Tensor, axis: int, start: int, stop: int) -> Tensor:
    if axis < 0:
        axis += t.data.ndim
    if not (0 <= start < stop <= t.shape[axis]):
        raise ShapeError(f"narrow [{start}:{stop}] out of range for axis {axis} of {t.shape}")
    index = [slice(None)] * t.data.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    data = t.data[index]

    def backward(g):
        if t.requires_grad:
            full = np.zeros_like(t.data)
            full[index] = g
            t._accumulate(full)

    return _from_op(data, (t,), backward, guard=False)


def tsum(t: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = t.data.sum(axis=axis, keepdims=keepdims)
    data = np.asarray(data)

    def backward(g):
        if not t.requires_grad:
            return
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            axes = tuple(a % t.data.ndim for a in axes)
            shape = tuple(1 if i in axes else d for i, d in enumerate(t.shape))
            g = g.reshape(shape)
        t._accumulate(np.broadcast_to(g, t.shape).copy())

    return _from_op(data, (t,), backward)


def tmean(t: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = t.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for a in axes:
            count *= t.shape[a % t.data.ndim]
    return mul(tsum(t, axis=axis, keepdims=keepdims), 1.0 / count)


def zeros(shape, dtype=DEFAULT_DTYPE, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)
