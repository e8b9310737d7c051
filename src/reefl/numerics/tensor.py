"""Dense tensors with reverse-mode automatic differentiation.

A define-by-run tape whose graph links nodes, not tensors. An op with an
input that needs a gradient gives its output a ``Node``: the output's
gradient, the nodes of the inputs that need one, and the backward rule.
One protocol covers both kinds of node: a leaf (a parameter) is its own node,
with no parents and no rule, and keeps ``.grad``; an op output answers only
through its node, and its own ``.grad`` stays None. ``Tensor.backward()``
calls each rule with its output's gradient, in reverse topological order.

A rule saves only the arrays it reads: ``matmul`` and ``mul`` keep an
operand's data only when the other operand needs a gradient, ``softmax`` and
``log_softmax`` their output, ``layer_norm`` the normalized input, the
inverse deviation and gamma, ``gelu`` its derivative and ``cross_entropy``
its log-probabilities; the other ops keep shapes. An activation therefore
lives only while forward code or a rule that reads it holds it. Under
``no_grad``, or when no input needs a gradient, an op saves nothing and
builds no node. No node refers to its output, so the graph is acyclic and
reference counting frees it once the last output is dropped. Gradients
accumulate (a node reached twice receives the sum of both path gradients);
an incoming gradient array is stored as is, so gradient arrays may alias
one another and none is ever written in place.

Graphs are single-use. Backward frees gradients and saved arrays as it goes:
once a node's rule has run, the node drops its rule, its parents and its
gradient, so only leaves keep ``.grad``. A second ``backward()`` that
reaches a consumed node raises ``StateError``.

``narrow``, ``select`` and ``broadcast_to`` return views of their input's
data. Storage defaults to float32; pass float64 data for high-precision
gradient checks.
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
    """Disable graph construction inside the block (forward-only).

    The flag is process-global, not per thread. That is safe because the
    simulator runs single-threaded: nothing else builds graphs while it is off.
    """
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


class Node:
    """An op output's place in the graph: the gradient flowing into it, the
    nodes of the op's inputs that need one, and the op's backward rule."""

    __slots__ = ("grad", "dtype", "_parents", "_backward")

    def __init__(self, dtype, parents: tuple, backward: Callable[[np.ndarray], None]):
        self.grad: np.ndarray | None = None
        self.dtype = dtype
        self._parents = parents
        self._backward = backward

    def _accumulate(self, g: np.ndarray) -> None:
        # Never in place: the stored array may be shared with other tensors.
        if self.grad is None:
            self.grad = g.astype(self.dtype, copy=False)
        else:
            self.grad = (self.grad + g).astype(self.dtype, copy=False)


class Tensor:
    """N-dimensional real array; an op output reaches the graph through its node."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _coerce(data, dtype)
        _guard_finite(self.data)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._node: Node | None = None

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

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- graph ----------------------------------------------------------
    # A leaf is its own node, with no parents and no rule; an op output
    # reaches the graph only through the node its op built.

    _parents = ()
    _backward = None
    _accumulate = Node._accumulate

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
        # node's gradients are summed, so it fixes the output bits. Nodes
        # without a rule (leaves) are not pushed, which leaves the order of
        # the other nodes unchanged; a consumed node keeps a rule (one that
        # raises) so that reaching it again is an error.
        root = self if self._node is None else self._node
        topo: list = []
        visited: set = set()
        stack: list = [(root, False)]
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

        # The graph is single-use: once a node's rule has run, the node lets
        # go of its rule, parents and gradient, so saved arrays and gradients
        # are freed while the sweep goes on. Leaves keep ``grad``.
        root._accumulate(grad)
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

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def select(self, axis: int, index: int) -> "Tensor":
        return select(self, axis, index)


def _consumed(g) -> None:
    raise StateError("backward() through a graph that an earlier backward() consumed")


def _lift(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    # no guard: a non-finite scalar makes the op's output non-finite, and its guard catches that
    return _from_op(np.asarray(x, dtype=dtype), guard=False)


def _node_of(t: Tensor):
    """The node an op links to for input ``t``: None when grad is off or
    ``t`` needs no gradient, the leaf itself, or the op output's node."""
    if not (_grad_enabled and t.requires_grad):
        return None
    return t if t._node is None else t._node


def _from_op(data: np.ndarray, parents: Sequence = (), backward=None, guard: bool = True) -> Tensor:
    """Build an op output; with a rule ``backward(grad_of_output)``, give it a
    node whose parents are the non-None entries of ``parents``.

    An op passes a rule only when ``_node_of`` found an input that needs a
    gradient. Pure data-movement ops (reshape, slice, concat, ...) pass
    guard=False: they cannot introduce non-finite values, their inputs were
    already checked.
    """
    if guard:
        _guard_finite(data)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if backward is None:
        out.requires_grad = False
        out._node = None
    else:
        out.requires_grad = True
        out._node = Node(data.dtype, tuple(p for p in parents if p is not None), backward)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = np.add.reduce(g, axis=0)
    for i, dim in enumerate(shape):
        if dim == 1 and g.shape[i] != 1:
            g = np.add.reduce(g, axis=i, keepdims=True)
    return g


# -- elementwise / structural ops ----------------------------------------
# A rule captures its parents' nodes and what it reads, never an input tensor.


def add(a: Tensor, b) -> Tensor:
    return _add_sub(a, b, negate_b=False)


def sub(a: Tensor, b) -> Tensor:
    return _add_sub(a, b, negate_b=True)


def _add_sub(a: Tensor, b, negate_b: bool) -> Tensor:
    b = _lift(b, a.dtype)
    data = a.data - b.data if negate_b else a.data + b.data
    na, nb = _node_of(a), _node_of(b)
    if na is None and nb is None:
        return _from_op(data)
    a_shape, b_shape = a.shape, b.shape

    def backward(g):
        if na is not None:
            na._accumulate(_unbroadcast(g, a_shape))
        if nb is not None:
            nb._accumulate(_unbroadcast(-g if negate_b else g, b_shape))

    return _from_op(data, (na, nb), backward)


def mul(a: Tensor, b) -> Tensor:
    b = _lift(b, a.dtype)
    data = a.data * b.data
    na, nb = _node_of(a), _node_of(b)
    if na is None and nb is None:
        return _from_op(data)
    a_shape, b_shape = a.shape, b.shape
    # each operand's gradient reads the other operand's data
    a_data = None if nb is None else a.data
    b_data = None if na is None else b.data

    def backward(g):
        if na is not None:
            na._accumulate(_unbroadcast(g * b_data, a_shape))
        if nb is not None:
            nb._accumulate(_unbroadcast(g * a_data, b_shape))

    return _from_op(data, (na, nb), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul operands must have rank >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    data = np.matmul(a.data, b.data)
    na, nb = _node_of(a), _node_of(b)
    if na is None and nb is None:
        return _from_op(data)
    a_shape, b_shape = a.shape, b.shape
    # each operand's gradient reads the other operand's data
    a_data = None if nb is None else a.data
    b_data = None if na is None else b.data

    def backward(g):
        if na is not None:
            ga = np.matmul(g, np.swapaxes(b_data, -1, -2))
            na._accumulate(_unbroadcast(ga, a_shape))
        if nb is not None:
            gb = np.matmul(np.swapaxes(a_data, -1, -2), g)
            nb._accumulate(_unbroadcast(gb, b_shape))

    return _from_op(data, (na, nb), backward)


def rearrange(t: Tensor, axes: tuple[int, ...], split=None, merge=None) -> Tensor:
    """Reshape to ``split``, permute by ``axes``, reshape to ``merge``: one op.

    Either reshape is skipped when its shape is None; attention uses this to
    split heads out of, and merge them back into, the feature axis.
    """
    data = np.transpose(t.data if split is None else t.data.reshape(split), axes)
    permuted = data.shape
    if merge is not None:
        data = data.reshape(merge)
    node = _node_of(t)
    if node is None:
        return _from_op(data, guard=False)
    shape = t.shape

    def backward(g):
        inverse = sorted(range(len(axes)), key=axes.__getitem__)
        node._accumulate(np.transpose(g.reshape(permuted), inverse).reshape(shape))

    return _from_op(data, (node,), backward, guard=False)


def transpose(t: Tensor, axes: tuple[int, ...]) -> Tensor:
    return rearrange(t, tuple(axes))


def reshape(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = t.data.reshape(shape)
    node = _node_of(t)
    if node is None:
        return _from_op(data, guard=False)
    old = t.shape

    def backward(g):
        node._accumulate(g.reshape(old))

    return _from_op(data, (node,), backward, guard=False)


def broadcast_to(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = np.broadcast_to(t.data, shape)
    node = _node_of(t)
    if node is None:
        return _from_op(data, guard=False)
    old = t.shape

    def backward(g):
        node._accumulate(_unbroadcast(g, old))

    return _from_op(data, (node,), backward, guard=False)


def concat(tensors: Iterable[Tensor], axis: int) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ShapeError("concat of zero tensors")
    data = np.concatenate([t.data for t in ts], axis=axis)
    nodes = [_node_of(t) for t in ts]
    if all(n is None for n in nodes):
        return _from_op(data, guard=False)
    sizes = [t.shape[axis] for t in ts]

    def backward(g):
        offset = 0
        index: list = [slice(None)] * g.ndim
        for node, size in zip(nodes, sizes):
            if node is not None:
                index[axis] = slice(offset, offset + size)
                node._accumulate(g[tuple(index)])
            offset += size

    return _from_op(data, nodes, backward, guard=False)


def stack(tensors: Iterable[Tensor], axis: int) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ShapeError("stack of zero tensors")
    data = np.stack([t.data for t in ts], axis=axis)
    nodes = [_node_of(t) for t in ts]
    if all(n is None for n in nodes):
        return _from_op(data, guard=False)
    lead = (slice(None),) * (axis % data.ndim)

    def backward(g):
        for i, node in enumerate(nodes):
            if node is not None:
                node._accumulate(g[lead + (i,)])

    return _from_op(data, nodes, backward, guard=False)


def _gather(t: Tensor, axis: int, key) -> Tensor:
    """``t.data`` indexed by ``key`` along ``axis``: an int or a slice gives
    a view, an index array a copy whose repeated indices sum in backward."""
    index = (slice(None),) * axis + (key,)
    data = t.data[index]
    node = _node_of(t)
    if node is None:
        return _from_op(data, guard=False)
    shape, dtype = t.shape, t.dtype

    def backward(g):
        full = np.zeros(shape, dtype)
        if isinstance(key, np.ndarray):
            np.add.at(full, index, g)
        else:
            full[index] = g
        node._accumulate(full)

    return _from_op(data, (node,), backward, guard=False)


def narrow(t: Tensor, axis: int, start: int, stop: int) -> Tensor:
    if axis < 0:
        axis += t.data.ndim
    if not (0 <= start < stop <= t.shape[axis]):
        raise ShapeError(f"narrow [{start}:{stop}] out of range for axis {axis} of {t.shape}")
    return _gather(t, axis, slice(start, stop))


def select(t: Tensor, axis: int, index: int) -> Tensor:
    """Single index along ``axis``; the axis is removed."""
    if axis < 0:
        axis += t.data.ndim
    if not 0 <= index < t.shape[axis]:
        raise ShapeError(f"select [{index}] out of range for axis {axis} of {t.shape}")
    return _gather(t, axis, index)


def take(t: Tensor, indices: Sequence[int], axis: int) -> Tensor:
    """The listed indices along ``axis``, in order; repeats allowed."""
    if axis < 0:
        axis += t.data.ndim
    if not all(0 <= i < t.shape[axis] for i in indices):
        raise ShapeError(f"take {list(indices)} out of range for axis {axis} of {t.shape}")
    return _gather(t, axis, np.asarray(indices, dtype=np.intp))


def tsum(t: Tensor) -> Tensor:
    data = np.asarray(t.data.sum())
    node = _node_of(t)
    if node is None:
        return _from_op(data)
    shape = t.shape

    def backward(g):
        node._accumulate(np.broadcast_to(g, shape).copy())

    return _from_op(data, (node,), backward)
