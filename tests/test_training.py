import gc
import math
import weakref
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import make_view, traced_memory
from gradcheck import grad_check
from reefl import backbone
from reefl.data import examples
from reefl.errors import (
    ConfigError,
    DivergenceError,
    InputError,
    NonFiniteError,
    ScheduleError,
    StateError,
    TraceError,
)
from reefl.numerics import Tensor
from reefl.numerics import tensor as tensor_module
from reefl.numerics.tensor import _consumed
from reefl.ree import ForwardTrace, forward_with_exits
from reefl.training import (
    MODE_FROZEN,
    MODE_FULL,
    TrainConfig,
    cosine_lr,
    eta_schedule,
    exit_ce_losses,
    kd_loss,
    local_train,
    select_teacher,
    sgd_step,
    trainable_tensors,
    update_running_estimate,
)


@dataclass
class FakeClient:
    id: int
    train: np.recarray
    estimate: np.ndarray | None = None


def make_client(rng, n=8, image=8, classes=4, cid=0):
    images, labels = zip(*[
        (rng.random((1, image, image)).astype(np.float32), int(rng.integers(classes))) for _ in range(n)
    ])
    return FakeClient(id=cid, train=examples(np.stack(images), labels))


def trace_with_logits(*logit_arrays):
    trace = ForwardTrace()
    trace.exit_logits = [Tensor(np.asarray(a, dtype=np.float64)) for a in logit_arrays]
    return trace


def scalar_kd_oracle(teacher, students, tau):
    """Independent per-sample scalar-loop KD reference."""
    teacher = np.asarray(teacher, dtype=np.float64)
    total = 0.0
    batch = teacher.shape[0]
    for student in students:
        student = np.asarray(student, dtype=np.float64)
        for j in range(batch):
            t = np.exp(teacher[j] / tau - max(teacher[j] / tau))
            t /= t.sum()
            s = np.exp(student[j] / tau - max(student[j] / tau))
            s /= s.sum()
            total += sum(ti * math.log(ti / si) for ti, si in zip(t, s) if ti > 0) * tau * tau
    return total / batch


# -- per-exit CE ------------------------------------------------------------


def test_exit_ce_uniform_logits():
    trace = trace_with_logits(np.zeros((3, 4)), np.zeros((3, 4)))
    losses = exit_ce_losses(trace, np.array([0, 1, 2]))
    for loss in losses:
        assert abs(loss.item() - math.log(4)) < 1e-12


def test_exit_ce_single_exit_budget():
    trace = trace_with_logits(np.zeros((2, 4)))
    losses = exit_ce_losses(trace, np.array([0, 1]), expected=1)
    assert len(losses) == 1


def test_exit_ce_batch_mean_of_singles():
    rng = np.random.default_rng(0)
    la, lb = rng.standard_normal((1, 5)), rng.standard_normal((1, 5))
    pair = exit_ce_losses(trace_with_logits(np.vstack([la, lb])), np.array([2, 4]))[0]
    solo_a = exit_ce_losses(trace_with_logits(la), np.array([2]))[0]
    solo_b = exit_ce_losses(trace_with_logits(lb), np.array([4]))[0]
    assert abs(pair.item() - 0.5 * (solo_a.item() + solo_b.item())) < 1e-12


def test_exit_ce_missing_exits():
    with pytest.raises(TraceError):
        exit_ce_losses(ForwardTrace(), np.array([0]))
    with pytest.raises(TraceError):
        exit_ce_losses(trace_with_logits(np.zeros((1, 4))), np.array([0]), expected=2)


# -- running estimate ----------------------------------------------------------


def test_update_running_estimate_ema():
    est = np.array([1.0])
    out = update_running_estimate(est, [0.0], zeta=0.2)
    assert abs(out[0] - 0.8) < 1e-12


def test_update_full_replacement_and_adoption():
    est = update_running_estimate(None, [0.3, 0.7], zeta=0.2)
    np.testing.assert_array_equal(est, [0.3, 0.7])
    est = update_running_estimate(est, [1.0, 2.0], zeta=1.0)
    np.testing.assert_array_equal(est, [1.0, 2.0])


def test_update_geometric_convergence():
    est = np.array([5.0])
    zeta, target = 0.2, 1.0
    for t in range(1, 30):
        est = update_running_estimate(est, [target], zeta)
        want = (1 - zeta) ** t * 5.0 + (1 - (1 - zeta) ** t) * target
        assert abs(est[0] - want) < 1e-10


def test_update_length_mismatch():
    with pytest.raises(StateError):
        update_running_estimate(np.array([1.0]), [1.0, 2.0], 0.2)


def test_select_teacher_argmin_and_ties():
    assert select_teacher(np.array([0.5, 0.2, 0.9])) == 1
    assert select_teacher(np.array([0.3, 0.3])) == 0
    base = np.array([0.7, 0.2, 0.4, 0.9])
    assert select_teacher(base) == select_teacher(base + 3.0)
    with pytest.raises(StateError):
        select_teacher(None)


# -- KD loss ----------------------------------------------------------


def test_kd_identical_logits_is_zero():
    logits = np.random.default_rng(1).standard_normal((4, 5))
    loss = kd_loss(trace_with_logits(logits, logits.copy()), 0, tau=1.0)
    assert abs(loss.item()) < 1e-12


def test_kd_worked_example():
    teacher = np.array([[math.log(3.0), 0.0]])
    student = np.array([[0.0, 0.0]])
    loss = kd_loss(trace_with_logits(teacher, student), 0, tau=1.0)
    want = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert abs(loss.item() - want) < 1e-12


def test_kd_matches_scalar_oracle_with_temperature():
    rng = np.random.default_rng(2)
    for tau in (0.5, 1.0, 2.0, 3.0):
        t = rng.standard_normal((3, 6))
        s1, s2 = rng.standard_normal((3, 6)), rng.standard_normal((3, 6))
        loss = kd_loss(trace_with_logits(s1, t, s2), 1, tau=tau)
        assert abs(loss.item() - scalar_kd_oracle(t, [s1, s2], tau)) < 1e-10


def test_kd_degenerate_single_exit():
    loss = kd_loss(trace_with_logits(np.zeros((2, 3))), 0, tau=1.0)
    assert loss.item() == 0.0


def test_kd_teacher_gets_no_gradient():
    rng = np.random.default_rng(3)
    trace = trace_with_logits(rng.standard_normal((2, 4)), rng.standard_normal((2, 4)))
    teacher_t, student_t = trace.exit_logits
    teacher_t.requires_grad = True
    student_t.requires_grad = True
    loss = kd_loss(trace, 0, tau=1.0, detach_teacher=True)
    loss.backward()
    assert teacher_t.grad is None
    assert student_t.grad is not None and np.abs(student_t.grad).max() > 0


def test_kd_teacher_grad_flag_flips_detachment():
    rng = np.random.default_rng(4)
    trace = trace_with_logits(rng.standard_normal((2, 4)), rng.standard_normal((2, 4)))
    teacher_t = trace.exit_logits[0]
    teacher_t.requires_grad = True
    loss = kd_loss(trace, 0, tau=1.0, detach_teacher=False)
    loss.backward()
    assert teacher_t.grad is not None


def test_kd_gradient_matches_fd_on_two_exit_toy():
    rng = np.random.default_rng(5)
    s = Tensor(rng.standard_normal((2, 4)), requires_grad=True, dtype=np.float64)
    t_const = rng.standard_normal((2, 4))

    def loss():
        trace = trace_with_logits(t_const)
        trace.exit_logits.append(s)
        return kd_loss(trace, 0, tau=2.0)

    report = grad_check(loss, {"student": s})
    assert report.passed, report


# -- schedules ------------------------------------------------------------


def test_eta_endpoints():
    cfg = TrainConfig()
    assert eta_schedule(300, cfg) == 1.0
    assert eta_schedule(600, cfg) == 1.0
    assert eta_schedule(150, cfg) == 0.5
    with pytest.raises(ScheduleError):
        eta_schedule(0, cfg)


def test_eta_monotone():
    cfg = TrainConfig()
    vals = [eta_schedule(t, cfg) for t in range(1, 700, 7)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_cosine_lr_endpoints_exact():
    cfg = TrainConfig(total_rounds=100)
    assert cosine_lr(1, cfg) == 5e-2
    assert cosine_lr(100, cfg) == 1e-3
    with pytest.raises(ScheduleError):
        cosine_lr(0, cfg)
    with pytest.raises(ScheduleError):
        cosine_lr(101, cfg)


def test_cosine_lr_midpoint_and_monotone():
    cfg = TrainConfig(total_rounds=101)
    assert abs(cosine_lr(51, cfg) - (5e-2 + 1e-3) / 2) < 1e-12
    vals = [cosine_lr(t, cfg) for t in range(1, 102)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(zeta=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(tau=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(mode="nope")


# -- SGD step / local train -------------------------------------------------


def test_sgd_clips_by_value():
    p = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    p.grad = np.array([5.0, -7.0, 0.25], dtype=np.float32)
    sgd_step([p], lr=1.0, clip=1.0)
    np.testing.assert_allclose(p.data, [-1.0, 1.0, -0.25])


def test_local_train_matches_manual_centralized_step():
    rng = np.random.default_rng(6)
    client = make_client(rng, n=4, cid=0)
    cfg = TrainConfig(total_rounds=10, batch_size=8, kd_enabled=False)

    view_a = make_view(depth=2, seed=7)
    view_b = make_view(depth=2, seed=7)

    local_train(client, view_a, cfg, round_t=3, rng=np.random.default_rng(99))

    from reefl.training import all_named_tensors, exit_ce_losses as ce_fn

    order = np.random.default_rng(99).permutation(4)
    images = np.stack([client.train[i].image for i in order])
    labels = np.array([client.train[i].label for i in order])
    trace = forward_with_exits(view_b, images)
    ces = ce_fn(trace, labels)
    total = ces[0]
    for ce in ces[1:]:
        total = total + ce
    total.backward()
    sgd_step(trainable_tensors(view_b, cfg.mode).values(), cosine_lr(3, cfg), cfg.clip)

    for name, t in all_named_tensors(view_a).items():
        np.testing.assert_array_equal(t.data, all_named_tensors(view_b)[name].data, err_msg=name)


def test_local_train_frozen_leaves_backbone_untouched():
    rng = np.random.default_rng(8)
    client = make_client(rng, n=6)
    view = make_view(depth=2, seed=9)
    before = {n: t.data.copy() for n, t in trainable_tensors(view, "full").items()}
    cfg = TrainConfig(total_rounds=5, batch_size=4, mode=MODE_FROZEN)
    updated, n = local_train(client, view, cfg, 1, np.random.default_rng(10))
    assert n == 6
    assert all(not k.startswith("block") for k in updated)
    for name, t in trainable_tensors(view, "full").items():
        if name.startswith(("block", "patch_embed", "pos_embed", "class_token")):
            np.testing.assert_array_equal(t.data, before[name], err_msg=name)
        elif name.startswith(("ree.", "classifier.")):
            assert not np.array_equal(t.data, before[name]), name


def test_local_train_updates_running_estimate_and_loss_decomposition():
    rng = np.random.default_rng(11)
    client = make_client(rng, n=4)
    view = make_view(depth=2, seed=12)
    cfg = TrainConfig(total_rounds=5, batch_size=8)
    local_train(client, view, cfg, 2, np.random.default_rng(13))
    assert client.estimate is not None and len(client.estimate) == 2

    view2 = make_view(depth=2, seed=12)
    order = np.random.default_rng(13).permutation(4)
    images = np.stack([client.train[i].image for i in order])
    labels = np.array([client.train[i].label for i in order])
    trace = forward_with_exits(view2, images)
    ces = exit_ce_losses(trace, labels)
    est = update_running_estimate(None, [c.item() for c in ces], cfg.zeta)
    kd = kd_loss(trace, select_teacher(est), cfg.tau)
    want = sum(c.item() for c in ces) + eta_schedule(2, cfg) * kd.item()
    assert abs(client.last_train_loss - want) < 1e-6


def test_local_train_determinism():
    cfg = TrainConfig(total_rounds=5, batch_size=4)
    results = []
    for _ in range(2):
        rng = np.random.default_rng(14)
        client = make_client(rng, n=6)
        view = make_view(depth=2, seed=15)
        updated, _ = local_train(client, view, cfg, 1, np.random.default_rng(16))
        results.append({k: v.data.copy() for k, v in updated.items()})
    for name in results[0]:
        np.testing.assert_array_equal(results[0][name], results[1][name], err_msg=name)


def test_local_train_leaves_no_reference_cycles():
    # Each training step's graph must be freed by reference counting alone.
    client = make_client(np.random.default_rng(17), n=4)
    view = make_view(depth=2, seed=18)
    cfg = TrainConfig(total_rounds=5, batch_size=4)
    gc.collect()
    gc.disable()
    try:
        local_train(client, view, cfg, 1, np.random.default_rng(19))
        del client, view
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_backward_frees_graph_as_it_goes(monkeypatch):
    # One training step of a budget-8 client at criterion-7 shapes (d=16, 17
    # tokens, 24 samples). Backward may add at most a quarter to the memory
    # the graph holds when it starts: each node's gradient and activations
    # are released once its rule has run.
    client = make_client(np.random.default_rng(23), n=24, image=16)
    view = make_view(depth=8, dim=16, heads=4, image=16, patch=4, exit_blocks=(2, 4, 6, 8), seed=24)
    cfg = TrainConfig(total_rounds=5, batch_size=24)
    run_backward = Tensor.backward
    seen = {}
    with traced_memory() as measure:

        def measured_backward(self, grad=None):
            seen["start"], seen["peak"] = measure(run_backward, self, grad)

        monkeypatch.setattr(Tensor, "backward", measured_backward)
        local_train(client, view, cfg, 1, np.random.default_rng(25))
    assert seen["peak"] <= 1.25 * seen["start"], seen

    def checked_backward(self, grad=None):
        nodes, stack = {}, [self._node]
        while stack:
            node = stack.pop()
            if node not in nodes:
                nodes[node] = node._backward is not None
                stack.extend(node._parents)
        run_backward(self, grad)
        ops = [node for node, is_op in nodes.items() if is_op]
        leaves = [node for node, is_op in nodes.items() if not is_op and node.requires_grad]
        assert ops and leaves
        assert all(n._backward is _consumed and n._parents == () and n.grad is None for n in ops)
        assert all(leaf.grad is not None for leaf in leaves)
        seen["checked"] = True

    monkeypatch.setattr(Tensor, "backward", checked_backward)
    local_train(client, view, cfg, 2, np.random.default_rng(26))
    assert seen["checked"]


@pytest.mark.parametrize("mode", [MODE_FULL, MODE_FROZEN])
def test_backward_starts_without_arrays_no_rule_reads(monkeypatch, mode):
    # A budget-8 step at criterion-7 shapes. The graph links nodes, and each
    # rule saves only what it reads, so these arrays are freed before
    # backward starts: the raw and scaled attention scores (the scale mul's
    # and softmax's inputs), every GELU input and a block's residual sum.
    # In frozen mode a backbone block after the first modulation still needs
    # gradients, but its wq product against a frozen weight saves nothing of
    # its input.
    client = make_client(np.random.default_rng(27), n=24, image=16)
    view = make_view(depth=8, dim=16, heads=4, image=16, patch=4, exit_blocks=(2, 4, 6, 8), seed=28)
    cfg = TrainConfig(total_rounds=5, batch_size=24, mode=mode)
    held = {}

    def hold(kind, array):
        held.setdefault(kind, []).append(weakref.ref(array))

    def wrap(module, name, record):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            record(out, *args)
            return out

        monkeypatch.setattr(module, name, wrapped)

    def record_mul(out, a, b):
        if not isinstance(b, Tensor) and a.data.ndim == 4:
            hold("raw scores", a.data)

    def record_matmul(out, a, b):
        if b is view.params["block3.wq"] and a.requires_grad:
            hold("wq input", a.data)

    def record_residual(out, zbar, *rest):
        if "residual sum" not in held and zbar.requires_grad:
            hold("residual sum", zbar.data)

    wrap(tensor_module, "mul", record_mul)
    wrap(backbone, "softmax", lambda out, x, **kw: hold("scaled scores", x.data))
    wrap(backbone, "gelu", lambda out, x: hold("gelu input", x.data))
    wrap(backbone, "mlp_residual", record_residual)
    if mode == MODE_FROZEN:
        wrap(backbone, "matmul", record_matmul)

    run_backward = Tensor.backward
    seen = {}
    with traced_memory() as measure:

        def checked_backward(self, grad=None):
            seen["alive"] = {kind: sum(ref() is not None for ref in refs) for kind, refs in held.items()}
            seen["start"], seen["peak"] = measure(run_backward, self, grad)

        monkeypatch.setattr(Tensor, "backward", checked_backward)
        local_train(client, view, cfg, 1, np.random.default_rng(29))
    kinds = ["raw scores", "scaled scores", "gelu input", "residual sum"]
    if mode == MODE_FROZEN:
        kinds.append("wq input")
    assert sorted(seen["alive"]) == sorted(kinds)
    # 8 backbone blocks and 8 applications of the shared block
    assert all(len(held[kind]) == 16 for kind in ("raw scores", "scaled scores", "gelu input"))
    assert seen["alive"] == dict.fromkeys(kinds, 0), seen["alive"]
    assert seen["peak"] <= 1.25 * seen["start"], seen


def test_local_train_without_examples_raises_input_error():
    client = make_client(np.random.default_rng(24), n=1, cid=5)
    client.train = client.train[:0]
    with pytest.raises(InputError, match="client 5 has no training data"):
        local_train(client, make_view(depth=2), TrainConfig(total_rounds=5), 1, np.random.default_rng(25))


def test_local_train_overflow_raises_divergence_naming_client_round_batch():
    client = make_client(np.random.default_rng(20), n=4, cid=3)
    view = make_view(depth=2, seed=21)
    view.params["patch_embed"].data[:] = 1e38  # the first matmul overflows float32
    cfg = TrainConfig(total_rounds=5, batch_size=4)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as info:
        local_train(client, view, cfg, 2, np.random.default_rng(22))
    assert str(info.value) == "non-finite loss for client 3 in round 2, batch 0"
    assert isinstance(info.value.__cause__, NonFiniteError)
