import math

import numpy as np
import pytest

from reefl.errors import NonFiniteError, ShapeError, StateError
from reefl.numerics import (
    Tensor,
    concat,
    cross_entropy,
    gelu,
    grad_check,
    layer_norm,
    log_softmax,
    matmul,
    narrow,
    no_grad,
    rearrange,
    reshape,
    select,
    softmax,
    stack,
    take,
    transpose,
    tsum,
)
from reefl.numerics.functional import _centred_var
from reefl.numerics.tensor import _from_op


def randn(rng, *shape):
    return Tensor(rng.standard_normal(shape), dtype=np.float64)


def param(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


# -- matmul ----------------------------------------------------------------


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(eye, m)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_analytic():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0], [4.0]])
    assert matmul(a, b).item() == 11.0


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_grad_matches_fd():
    rng = np.random.default_rng(0)
    a = param(rng, 3, 4)
    b = param(rng, 4, 2)
    report = grad_check(lambda: tsum(matmul(a, b)), {"a": a, "b": b})
    assert report.passed, report


def test_matmul_batched_grad():
    rng = np.random.default_rng(1)
    a = param(rng, 2, 3, 4)
    w = param(rng, 4, 5)
    report = grad_check(lambda: tsum(matmul(a, w)), {"a": a, "w": w})
    assert report.passed, report


# -- layer norm --------------------------------------------------------------


def test_layer_norm_constant_row_is_zero():
    x = Tensor(np.full((2, 4), 3.7))
    out = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_already_normalized():
    x = Tensor(np.array([[1.0, -1.0]]), dtype=np.float64)
    out = layer_norm(x, Tensor(np.ones(2), dtype=np.float64), Tensor(np.zeros(2), dtype=np.float64), eps=1e-12)
    np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [8, 16, 17, 32, 64])
def test_layer_norm_moments_match_numpy_bitwise(dtype, d):
    x = (np.random.default_rng(d).standard_normal((3, 5, d)) * 3.0 + 1.5).astype(dtype)
    xc, var = _centred_var(x)
    np.testing.assert_array_equal(var, np.var(x, -1, keepdims=True))
    assert var.dtype == dtype
    eps = 1e-5
    old_xhat = (x - x.mean(-1, keepdims=True)) * (1.0 / np.sqrt(np.var(x, -1, keepdims=True) + eps))
    out = layer_norm(Tensor(x), Tensor(np.ones(d, dtype)), Tensor(np.zeros(d, dtype)), eps=eps)
    np.testing.assert_array_equal(out.data, old_xhat)


def test_layer_norm_grad_matches_fd():
    rng = np.random.default_rng(2)
    x = param(rng, 3, 5)
    g = param(rng, 5)
    b = param(rng, 5)
    report = grad_check(lambda: tsum(layer_norm(x, g, b)), {"x": x, "gamma": g, "beta": b})
    assert report.passed, report


# -- softmax ------------------------------------------------------------------


def test_softmax_symmetry():
    out = softmax(reshape(Tensor([0.0, 0.0, 0.0]), (1, 3)))
    np.testing.assert_allclose(out.data, 1.0 / 3.0, atol=1e-7)


def test_softmax_overflow_safe():
    out = softmax(reshape(Tensor([1000.0, 1000.0]), (1, 2)))
    np.testing.assert_allclose(out.data, 0.5)


def test_softmax_analytic():
    out = softmax(reshape(Tensor([0.0, math.log(3.0)], dtype=np.float64), (1, 2)))
    np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((10, 7)) * 5, dtype=np.float64)
    out = softmax(x)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)
    assert (out.data > 0).all()


def test_softmax_shift_invariance():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 6))
    a = softmax(Tensor(x, dtype=np.float64))
    b = softmax(Tensor(x + 13.25, dtype=np.float64))
    np.testing.assert_allclose(a.data, b.data, atol=1e-12)


def test_softmax_grad_matches_fd():
    rng = np.random.default_rng(5)
    x = param(rng, 2, 4)
    w = Tensor(rng.standard_normal((2, 4)), dtype=np.float64)
    report = grad_check(lambda: tsum(softmax(x) * w), {"x": x})
    assert report.passed, report


def test_log_softmax_grad_matches_fd():
    rng = np.random.default_rng(6)
    x = param(rng, 2, 4)
    w = Tensor(rng.standard_normal((2, 4)), dtype=np.float64)
    report = grad_check(lambda: tsum(log_softmax(x) * w), {"x": x})
    assert report.passed, report


# -- in-place kernels against the formulas they replaced ----------------------

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


def old_gelu(d, g):
    th = np.tanh(_SQRT_2_OVER_PI * (d + 0.044715 * d * d * d))
    sech2 = 1.0 - th * th
    deriv = 0.5 * (1.0 + th) + 0.5 * d * sech2 * _SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044715 * d * d)
    return 0.5 * d * (1.0 + th), g * deriv


def old_softmax(d, g):
    e = np.exp(d - d.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    return y, y * (g - (g * y).sum(axis=-1, keepdims=True))


def old_log_softmax(d, g):
    shifted = d - d.max(axis=-1, keepdims=True)
    data = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return data, g - np.exp(data) * g.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3, 5, 17), (4, 65, 256)], ids=["small", "256KB+"])
@pytest.mark.parametrize("op, old", [(gelu, old_gelu), (softmax, old_softmax), (log_softmax, old_log_softmax)],
                         ids=["gelu", "softmax", "log_softmax"])
def test_kernels_match_old_formulas_bitwise(op, old, shape, dtype):
    # 65,536 float32 elements (256 KB) is where numpy starts reusing the
    # temporaries of an expression in place; both sides of that line are pinned.
    rng = np.random.default_rng(sum(shape))
    d = (rng.standard_normal(shape) * 3.0).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)
    want_out, want_grad = old(d, g)
    x = Tensor(d, requires_grad=True)
    out = op(x)
    np.testing.assert_array_equal(out.data, want_out)
    assert out.dtype == dtype
    out.backward(g)
    np.testing.assert_array_equal(x.grad, want_grad)
    assert x.grad.dtype == dtype


# -- cross entropy --------------------------------------------------------------


def test_cross_entropy_uniform():
    logits = Tensor(np.zeros((3, 4)), dtype=np.float64)
    loss = cross_entropy(logits, np.array([0, 1, 3]))
    assert abs(loss.item() - math.log(4.0)) < 1e-12


def test_cross_entropy_confident_is_zero():
    logits = np.zeros((1, 4))
    logits[0, 2] = 1e6
    loss = cross_entropy(Tensor(logits, dtype=np.float64), np.array([2]))
    assert loss.item() < 1e-9


def test_cross_entropy_label_out_of_range():
    with pytest.raises(IndexError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_cross_entropy_grad_matches_fd():
    rng = np.random.default_rng(7)
    x = param(rng, 4, 5)
    labels = np.array([0, 2, 4, 1])
    report = grad_check(lambda: cross_entropy(x, labels), {"x": x})
    assert report.passed, report


def test_cross_entropy_backward_formula():
    rng = np.random.default_rng(8)
    x = param(rng, 3, 4)
    labels = np.array([1, 0, 3])
    loss = cross_entropy(x, labels)
    loss.backward()
    p = np.exp(x.data - x.data.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(3), labels] -= 1.0
    np.testing.assert_allclose(x.grad, p / 3.0, atol=1e-12)


# -- elementwise / structural ---------------------------------------------------


def test_gelu_at_zero():
    assert gelu(Tensor([0.0])).item() == 0.0


def test_gelu_float32_matches_float64_closed_form():
    x = np.linspace(-10.0, 10.0, 20001, dtype=np.float32)
    got = gelu(Tensor(x)).data
    assert got.dtype == np.float32
    xd = x.astype(np.float64)
    want = 0.5 * xd * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (xd + 0.044715 * xd**3)))
    # a few float32 roundings, scaled by the output's magnitude (about |x|)
    tol = 4 * np.finfo(np.float32).eps * np.maximum(np.abs(xd), 1.0)
    assert (np.abs(got - want) <= tol).all()
    assert got[0] == 0.0 and got[-1] == np.float32(10.0)


def test_gelu_grad_matches_fd():
    rng = np.random.default_rng(10)
    x = param(rng, 3, 3)
    report = grad_check(lambda: tsum(gelu(x)), {"x": x})
    assert report.passed, report


def test_concat_slice_roundtrip():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0, 4.0]])
    cat = concat([a, b], axis=0)
    np.testing.assert_array_equal(narrow(cat, 0, 0, 1).data, a.data)
    np.testing.assert_array_equal(narrow(cat, 0, 1, 2).data, b.data)


@pytest.mark.parametrize(
    "build",
    [
        lambda x, w: tsum(x + w),
        lambda x, w: tsum(x * w),
        lambda x, w: tsum(x - w),
        lambda x, w: tsum(transpose(x, (1, 0)) * transpose(w, (1, 0))),
        lambda x, w: tsum(reshape(x, (6,)) * reshape(w, (6,))),
        lambda x, w: tsum(concat([x, w], axis=0)),
        lambda x, w: tsum(narrow(x, 1, 1, 3) * narrow(w, 1, 0, 2)),
        lambda x, w: tsum(stack([x.select(0, 0), w.select(0, 1)], axis=0)),
        lambda x, w: tsum(stack([x, w, x], axis=-1) * stack([w, w, x], axis=2)),
        lambda x, w: tsum(select(x, -1, 2) * select(w, 1, 0)),
        lambda x, w: tsum(take(x, (2, 0, 2), axis=1) * take(w, (1, 1, 0), axis=-1)),
        lambda x, w: tsum(rearrange(x, (1, 0), split=(3, 2)) * w),
        lambda x, w: tsum(rearrange(x, (1, 0), merge=(6,)) * reshape(w, (6,))),
        lambda x, w: tsum(rearrange(x, (2, 0, 1), split=(2, 3, 1), merge=(3, 2)) * reshape(w, (3, 2))),
    ],
    ids=["add", "mul", "sub", "transpose", "reshape", "concat", "narrow", "stack-select",
         "stack-last-axis", "select", "take-repeats", "rearrange-split", "rearrange-merge", "rearrange-both"],
)
def test_structural_ops_grad_matches_fd(build):
    rng = np.random.default_rng(11)
    x = param(rng, 2, 3)
    w = param(rng, 2, 3)
    report = grad_check(lambda: build(x, w), {"x": x, "w": w})
    assert report.passed, report


def test_fused_movement_ops_match_their_compositions_bitwise():
    # Each fused op must give the same values, and its backward the same
    # gradient layout, as the chain of single ops it replaces: a matmul
    # downstream reads strides, so a different layout could change bits.
    rng = np.random.default_rng(13)

    def grads(build, *shapes):
        xs = [Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True) for s in shapes]
        out = build(*xs)
        seed = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(seed)
        return out.data, [x.grad for x in xs]

    def same(fused, chained, *shapes):
        state = rng.bit_generator.state
        got = grads(fused, *shapes)
        rng.bit_generator.state = state
        want = grads(chained, *shapes)
        np.testing.assert_array_equal(got[0], want[0])
        for g, w in zip(got[1], want[1]):
            np.testing.assert_array_equal(g, w)
            assert g.strides == w.strides

    b, t, heads, hd = 3, 5, 2, 4
    same(lambda x: rearrange(x, (0, 2, 3, 1), split=(b, t, heads, hd)),
         lambda x: transpose(reshape(x, (b, t, heads, hd)), (0, 2, 3, 1)), (b, t, heads * hd))
    same(lambda x: rearrange(x, (0, 2, 1, 3), merge=(b, t, heads * hd)),
         lambda x: reshape(transpose(x, (0, 2, 1, 3)), (b, t, heads * hd)), (b, heads, t, hd))
    same(lambda x, y: stack([x, y], axis=1),
         lambda x, y: concat([reshape(x, (b, 1, hd)), reshape(y, (b, 1, hd))], axis=1), (b, hd), (b, hd))
    same(lambda x: x.select(1, 2),
         lambda x: reshape(narrow(x, 1, 2, 3), (b, hd)), (b, t, hd))
    same(lambda x: take(x, (0, t - 1), axis=1),
         lambda x: concat([narrow(x, 1, 0, 1), narrow(x, 1, t - 1, t)], axis=1), (b, t, hd))


def test_select_and_take_reject_out_of_range():
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        select(x, 1, 3)
    with pytest.raises(ShapeError):
        take(x, (0, 3), axis=1)


def test_broadcast_add_grad():
    rng = np.random.default_rng(12)
    x = param(rng, 4, 3)
    b = param(rng, 3)
    report = grad_check(lambda: tsum(x + b), {"x": x, "b": b})
    assert report.passed, report


def test_double_consumption_accumulates():
    x = Tensor([2.0, 3.0], requires_grad=True, dtype=np.float64)
    y = tsum(x * x) + tsum(x * 4.0)
    y.backward()
    np.testing.assert_allclose(x.grad, 2 * x.data + 4.0)


def test_shared_gradient_array_is_never_written_in_place():
    # add hands the same gradient array to a and b; a's second gradient
    # must not leak into b through it.
    a = Tensor(np.zeros((2, 3)), requires_grad=True, dtype=np.float64)
    b = Tensor(np.zeros((2, 3)), requires_grad=True, dtype=np.float64)
    z = tsum(a + b) + tsum(a * 2.0)
    z.backward()
    np.testing.assert_array_equal(b.grad, np.ones((2, 3)))
    np.testing.assert_array_equal(a.grad, np.full((2, 3), 3.0))


def test_second_backward_through_consumed_graph_raises():
    x = Tensor([2.0, 3.0], requires_grad=True, dtype=np.float64)
    y = gelu(x)
    tsum(y).backward()
    first = x.grad
    assert first is not None and y._node.grad is None and y._node._parents == ()
    with pytest.raises(StateError):
        tsum(y * 2.0).backward()
    with pytest.raises(StateError):
        tsum(y).backward()
    # a fresh graph over the same leaves still works
    x.grad = None
    tsum(gelu(x) * 2.0).backward()
    np.testing.assert_array_equal(x.grad, 2.0 * first)


def test_no_grad_suppresses_graph():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        y = x * 2.0
    assert not y.requires_grad and y._node is None


# -- grad_check behavior ----------------------------------------------------------


def test_grad_check_linear_is_exact():
    rng = np.random.default_rng(13)
    w = param(rng, 5)
    c = Tensor(rng.standard_normal(5), dtype=np.float64)
    report = grad_check(lambda: tsum(w * c), {"w": w}, tol=1e-8)
    assert report.passed and report.max_rel_err < 1e-8


def test_grad_check_flags_corrupted_backward():
    def bad_double(t):
        data = t.data * 2.0

        def backward(g):
            t._accumulate(g * 3.0)  # wrong rule on purpose

        return _from_op(data, (t,), backward)

    rng = np.random.default_rng(14)
    w = param(rng, 4)
    report = grad_check(lambda: tsum(bad_double(w)), {"w": w})
    assert not report.passed and report.max_rel_err > 1e-2


def test_nonfinite_raises():
    with pytest.raises(NonFiniteError):
        Tensor([np.inf])
    big = Tensor([1e300], dtype=np.float64)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        big * 1e300
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        big * -1e300
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.nan])
    # a finite row whose sum overflows: x - mean is -Inf, 1/sqrt(var) is 0, xhat is NaN
    x = Tensor([[1.7e308, 1.7e308]], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        xc, var = _centred_var(x.data)
        assert np.isnan(xc * (1.0 / np.sqrt(var + 1e-5))).all()
        with pytest.raises(NonFiniteError):
            layer_norm(x, Tensor(np.ones(2), dtype=np.float64), Tensor(np.zeros(2), dtype=np.float64))
