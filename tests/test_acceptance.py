"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 7 is the
slow behavioral check (several federated runs); everything else is fast.
"""
import itertools
import math
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import reefl
from conftest import label_entropy, make_view
from gradcheck import grad_check
from reefl.backbone import ModelConfig
from reefl.config import parse_config
from reefl.data import lda_partition
from reefl.federation import (
    aggregate,
    build_server,
    comm_cost,
    init_global_model,
    rng_for,
    run_round,
    slice_submodel,
)
from reefl.numerics import Tensor
from reefl.ree import forward_with_exits
from reefl.training import (
    MODE_FROZEN,
    MODE_FULL,
    TrainConfig,
    all_named_tensors,
    cosine_lr,
    eta_schedule,
    exit_ce_losses,
    kd_loss,
    select_teacher,
    sgd_step,
    update_running_estimate,
)


def _report(criterion: str, passed: bool, detail: str = ""):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


# -- criterion 7/9 shared configuration (calibrated desk-scale run) -----------
#
# Pinned by the criterion: 4 classes, C=20, alpha=1.0, L=8, E=4 every 2 blocks,
# 100 rounds, full training. Calibrated free knobs: lr0 2e-2 (the published
# 5e-2 fine-tuning rate destabilizes a randomly initialized toy model), width
# 16, pixel noise 0.35, 150 examples/class, full participation (lowest-variance
# measurement). Everything else stays at published defaults.

CRITERION7_BASE = {
    "model.depth": 8, "model.dim": 16, "model.heads": 4, "model.patch_size": 4,
    "model.num_classes": 4,
    "schedule.every_k": 2,
    "train.lr0": 0.02,
    "data.num_classes": 4, "data.per_class": 150, "data.image_size": 16,
    "data.noise": 0.35, "data.alpha": 1.0,
    "federation.num_clients": 20, "federation.sample_fraction": 1.0,
    "federation.total_rounds": 100, "federation.eval_interval": 20,
}

CRITERION7_SEEDS = (0, 1, 2)


def criterion7_overrides(seed, modulation=True, kd=True):
    overrides = dict(CRITERION7_BASE)
    overrides.update({
        "seed": seed,
        "schedule.modulation_enabled": str(modulation).lower(),
        "train.kd_enabled": str(kd).lower(),
    })
    return [f"{k}={v}" for k, v in overrides.items()]


def criterion7_config(seed, modulation=True, kd=True):
    return parse_config(overrides=criterion7_overrides(seed, modulation, kd))


def _final_mean_accuracy(cfg):
    from reefl.federation import build_server, run_rounds

    final = [r for r in run_rounds(build_server(cfg)) if r.exit_accuracy is not None][-1]
    return float(final.exit_accuracy.mean())


def _criterion7_job(args):
    seed, modulation, kd = args
    return args, _final_mean_accuracy(criterion7_config(seed, modulation, kd))


@pytest.fixture(scope="module")
def criterion7_results():
    """Nine federated runs: (modulation, kd) in {(1,1),(0,1),(1,0)} x 3 seeds."""
    start = time.time()
    jobs = [
        (seed, modulation, kd)
        for seed in CRITERION7_SEEDS
        for modulation, kd in ((True, True), (False, True), (True, False))
    ]
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = dict(pool.map(_criterion7_job, jobs))
    results["elapsed"] = time.time() - start
    return results


# -- criterion 1 --------------------------------------------------------------


def test_criterion_1_gradient_integrity():
    start = time.time()
    view = make_view(
        depth=2, dim=16, heads=4, image=8, patch=4, classes=4,
        exit_blocks=(1, 2), seed=41, dtype=np.float64,
    )
    rng = np.random.default_rng(42)
    view.params["ree.wo"].data[:] = rng.standard_normal(view.params["ree.wo"].shape) * 0.1
    view.params["ree.mlp_w2"].data[:] = rng.standard_normal(view.params["ree.mlp_w2"].shape) * 0.1
    images = rng.random((2, 1, 8, 8))
    labels = np.array([0, 3])
    eta = 0.7

    # Central differences see the whole computation graph, so the KD term runs
    # with teacher gradients enabled here; the stop-gradient variant is covered
    # by the exact-zero teacher-gradient unit test.
    def loss():
        trace = forward_with_exits(view, images)
        ces = exit_ce_losses(trace, labels, expected=2)
        total = ces[0] + ces[1]
        kd = kd_loss(trace, teacher=0, tau=2.0, detach_teacher=False)
        return total + kd * eta

    params = all_named_tensors(view)
    report = grad_check(loss, params, eps=1e-5, tol=1e-4)
    elapsed = time.time() - start
    _report(
        "criterion 1 (gradient integrity)",
        report.passed and elapsed < 30.0,
        f"max rel err {report.max_rel_err:.2e} over {len(params)} tensors in {elapsed:.1f}s",
    )


# -- criterion 2 --------------------------------------------------------------


def test_criterion_2_kd_oracle_equivalence():
    rng = np.random.default_rng(43)
    worst = 0.0
    cases = 0
    for tau in (0.5, 1.0, 2.0, 3.0):
        for _ in range(13 if tau != 3.0 else 11):  # 50 cases total
            batch, k, n_exits = int(rng.integers(1, 5)), int(rng.integers(2, 8)), int(rng.integers(2, 5))
            logit_sets = [rng.standard_normal((batch, k)) * 3 for _ in range(n_exits)]
            teacher = int(rng.integers(n_exits))
            trace_like = _trace_from(logit_sets)
            got = kd_loss(trace_like, teacher, tau).item()
            want = _scalar_kd(logit_sets[teacher], [s for e, s in enumerate(logit_sets) if e != teacher], tau)
            worst = max(worst, abs(got - want))
            cases += 1
    same = rng.standard_normal((3, 6))
    identical = kd_loss(_trace_from([same, same.copy(), same.copy()]), 1, 1.0).item()
    _report(
        "criterion 2 (KD oracle equivalence)",
        cases == 50 and worst < 1e-8 and identical == 0.0,
        f"{cases} cases, worst |diff| {worst:.2e}, KD(identical)={identical}",
    )


def _trace_from(logit_sets):
    from reefl.ree import ForwardTrace

    trace = ForwardTrace()
    trace.exit_logits = [Tensor(np.asarray(a, dtype=np.float64)) for a in logit_sets]
    return trace


def _scalar_kd(teacher, students, tau):
    teacher = np.asarray(teacher, dtype=np.float64)
    total, batch = 0.0, teacher.shape[0]
    for student in students:
        for j in range(batch):
            t = np.exp(teacher[j] / tau - max(teacher[j] / tau)); t /= t.sum()
            s = np.exp(np.asarray(student[j]) / tau - max(student[j] / tau)); s /= s.sum()
            total += sum(ti * math.log(ti / si) for ti, si in zip(t, s) if ti > 0) * tau * tau
    return total / batch


# -- criterion 3 --------------------------------------------------------------


def test_criterion_3_aggregation_oracle():
    rng = np.random.default_rng(44)
    worst = 0.0
    for trial in range(20):
        depth = int(rng.choice([4, 8, 12]))
        k = int(rng.integers(1, min(4, depth) + 1))
        blocks = sorted(rng.choice(range(1, depth), size=k - 1, replace=False).tolist() + [depth]) if k > 1 else [depth]
        cfg = ModelConfig(depth=depth, dim=8, heads=2, patch_size=4, num_classes=4,
                          image_size=8, image_channels=1, exit_blocks=tuple(blocks))
        model = init_global_model(cfg, np.random.default_rng(trial))
        updates = []
        for _ in range(int(rng.integers(1, 6))):
            budget = int(rng.choice(blocks))
            view = slice_submodel(model, budget)
            named = all_named_tensors(view)
            for t in named.values():
                t.data += rng.standard_normal(t.shape).astype(np.float32)
            updates.append((named, int(rng.integers(1, 100)), budget))
        want = {}
        for name, tensor in model.params.items():
            num = np.zeros(tensor.shape, dtype=np.float64)
            den = 0.0
            for params, weight, budget in updates:
                covered = (not name.startswith("block")) or int(name[5:name.index(".")]) <= budget
                if covered:
                    num += weight * params[name].data.astype(np.float64)
                    den += weight
            # oracle compared at the aggregate's 32-bit storage precision
            want[name] = (num / den).astype(np.float32) if den else tensor.data
        aggregate(model, updates)
        for name, tensor in model.params.items():
            worst = max(worst, float(np.abs(tensor.data - want[name]).max()))

    # identical-inputs fixed point, exact
    cfg = ModelConfig(depth=4, dim=8, heads=2, patch_size=4, num_classes=4,
                      image_size=8, image_channels=1, exit_blocks=(2, 4))
    model = init_global_model(cfg, np.random.default_rng(123))
    before = {n: t.data.copy() for n, t in model.params.items()}
    views = [all_named_tensors(slice_submodel(model, 4)) for _ in range(3)]
    aggregate(model, [(v, w, 4) for v, w in zip(views, (1, 7, 29))])
    exact = all(
        np.array_equal(t.data, before[n]) for n, t in model.params.items()
    )
    _report(
        "criterion 3 (aggregation oracle)",
        worst < 1e-7 and exact,
        f"20 random configs, worst |diff| {worst:.2e}; identical-inputs fixed point exact={exact}",
    )


# -- criterion 4 --------------------------------------------------------------


def test_criterion_4_centralized_equivalence():
    overrides = {
        "seed": 5,
        "model.depth": 4, "model.dim": 16, "model.heads": 4, "model.patch_size": 4,
        "model.num_classes": 4,
        "schedule.exit_blocks": "4", "schedule.every_k": 4,
        "train.kd_enabled": "false", "train.batch_size": 8, "train.lr0": 0.02,
        "data.num_classes": 4, "data.per_class": 10, "data.image_size": 8,
        "federation.num_clients": 1, "federation.sample_fraction": 1.0,
        "federation.total_rounds": 10, "federation.eval_interval": 100,
    }
    cfg = parse_config(overrides=[f"{k}={v}" for k, v in overrides.items()])

    state = build_server(cfg)
    initial = {n: t.data.copy() for n, t in state.model.params.items()}
    train_set = list(state.clients[0].train)
    fed_snaps = []
    for t in range(1, 11):
        run_round(state, t)
        fed_snaps.append({n: p.data.copy() for n, p in state.model.params.items()})

    # independent centralized loop: same init, same seeded batch order, plain SGD
    oracle = build_server(cfg)
    model = oracle.model
    for name, tensor in model.params.items():
        np.testing.assert_array_equal(tensor.data, initial[name])
    view = slice_submodel(model, 4)
    tcfg = oracle.train_cfg
    central_snaps = []
    named_view = all_named_tensors(view)
    for name, tensor in named_view.items():
        tensor.requires_grad = True
    for t in range(1, 11):
        rng = rng_for(5, 6, t, 0)
        order = rng.permutation(len(train_set))
        for start in range(0, len(order), tcfg.batch_size):
            idx = order[start : start + tcfg.batch_size]
            images = np.stack([train_set[i].image for i in idx])
            labels = np.array([train_set[i].label for i in idx])
            trace = forward_with_exits(view, images)
            loss = exit_ce_losses(trace, labels)[0]
            loss.backward()
            sgd_step(named_view.values(), cosine_lr(t, tcfg), tcfg.clip)
        central_snaps.append({n: p.data.copy() for n, p in named_view.items()})

    identical = all(
        np.array_equal(fed_snaps[t][name], central_snaps[t][name])
        for t in range(10)
        for name in central_snaps[t]
    )
    _report(
        "criterion 4 (centralized equivalence)",
        identical,
        "10 rounds bit-identical to the centralized SGD loop",
    )


# -- criterion 5 --------------------------------------------------------------


def test_criterion_5_teacher_selection():
    values = (0.1, 0.2, 0.3, 0.4)
    ok = True
    for combo in itertools.product(values, repeat=4):
        est = np.array(combo)
        want = combo.index(min(combo))  # shallowest tie by construction
        ok &= select_teacher(est) == want
    worst = 0.0
    zeta, init, target = 0.2, 3.7, 0.9
    est = np.array([init])
    for t in range(1, 60):
        est = update_running_estimate(est, [target], zeta)
        closed = (1 - zeta) ** t * init + (1 - (1 - zeta) ** t) * target
        worst = max(worst, abs(est[0] - closed))
    _report(
        "criterion 5 (teacher selection)",
        ok and worst < 1e-10,
        f"argmin exhaustive over {len(values)**4} orderings; EMA vs closed form |diff| {worst:.1e}",
    )


# -- criterion 6 --------------------------------------------------------------


def test_criterion_6_schedule_endpoints():
    cfg = TrainConfig(total_rounds=1000)
    eta_ok = eta_schedule(300, cfg) == 1.0
    lr_ok = cosine_lr(1, cfg) == 5e-2 and cosine_lr(1000, cfg) == 1e-3
    _report(
        "criterion 6 (schedule endpoints)",
        eta_ok and lr_ok,
        f"eta(300)={eta_schedule(300, cfg)}, lr(1)={cosine_lr(1, cfg)}, lr(T)={cosine_lr(1000, cfg)}",
    )


# -- criterion 7 --------------------------------------------------------------


@pytest.mark.slow
def test_criterion_7a_learning_signal(criterion7_results):
    per_seed = [criterion7_results[(s, True, True)] for s in CRITERION7_SEEDS]
    mean_acc = float(np.mean(per_seed))
    elapsed = criterion7_results["elapsed"]
    _report(
        "criterion 7a (desk-scale accuracy > 70%)",
        mean_acc > 0.70 and elapsed < 900,
        f"mean-exit accuracy {100*mean_acc:.1f}% over 3 seeds "
        f"(per seed {[f'{100*a:.1f}' for a in per_seed]}); 9 runs in {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_7b_modulation_ablation(criterion7_results):
    gaps = [
        criterion7_results[(s, True, True)] - criterion7_results[(s, False, True)]
        for s in CRITERION7_SEEDS
    ]
    gap = float(np.mean(gaps))
    _report(
        "criterion 7b (modulation beats ablation by >= 2 points)",
        gap >= 0.02,
        f"modulation gap {100*gap:+.2f}pts averaged over 3 seeds "
        f"(per seed {[f'{100*g:+.1f}' for g in gaps]})",
    )


@pytest.mark.slow
def test_criterion_7c_kd_effect(criterion7_results):
    gaps = [
        criterion7_results[(s, True, True)] - criterion7_results[(s, True, False)]
        for s in CRITERION7_SEEDS
    ]
    gap = float(np.mean(gaps))
    _report(
        "criterion 7c (KD-on >= KD-off - 0.5 points)",
        gap >= -0.005,
        f"KD effect {100*gap:+.2f}pts averaged over 3 seeds "
        f"(per seed {[f'{100*g:+.1f}' for g in gaps]})",
    )


# -- criterion 8 --------------------------------------------------------------


def test_criterion_8_communication_invariance():
    def model_for(exits):
        cfg = ModelConfig(depth=12, dim=32, heads=4, patch_size=4, num_classes=4,
                          image_size=16, image_channels=1, exit_blocks=exits)
        return init_global_model(cfg, np.random.default_rng(0))

    m4 = model_for((3, 6, 9, 12))
    m12 = model_for(tuple(range(1, 13)))
    frozen_costs = {
        comm_cost(slice_submodel(m, b), MODE_FROZEN)
        for m in (m4, m12)
        for b in m.config.exit_blocks
    }
    full_costs = [comm_cost(slice_submodel(m4, b), MODE_FULL) for b in (3, 6, 9, 12)]
    increasing = all(b > a for a, b in zip(full_costs, full_costs[1:]))
    _report(
        "criterion 8 (communication invariance)",
        len(frozen_costs) == 1 and increasing,
        f"frozen cost constant at {frozen_costs} bytes over budgets and E in {{4,12}}; "
        f"full-mode costs {full_costs} strictly increasing",
    )


# -- criterion 9 --------------------------------------------------------------


def _pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _start_criterion9_run(out_dir: Path, blas_threads: int, one_cpu: bool = False) -> subprocess.Popen:
    """The criterion-7 run at seed 0 as a fresh ``reefl run`` process.

    BLAS reads its thread count when numpy loads, so only a new interpreter
    (not a forked worker) runs under the given OPENBLAS_NUM_THREADS. A run
    pinned to ``one_cpu`` starts no helper process; on a host with more
    CPUs, the others do.
    """
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(reefl.__file__).resolve().parents[1]),
        OPENBLAS_NUM_THREADS=str(blas_threads),
    )
    args = [f"--{kv}" for kv in criterion7_overrides(seed=0)] + [f"--output_dir={out_dir}"]
    return subprocess.Popen(
        [sys.executable, "-m", "reefl.cli", "run", *args],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env,
        preexec_fn=_pin_to_one_cpu if one_cpu else None,
    )


def _finish(proc: subprocess.Popen) -> None:
    _, err = proc.communicate(timeout=900)
    assert proc.returncode == 0, err


@pytest.mark.slow
def test_criterion_9_determinism(tmp_path):
    pair = [_start_criterion9_run(tmp_path / name, blas_threads=2) for name in ("a", "b")]
    for proc in pair:
        _finish(proc)
    pair = [
        _start_criterion9_run(tmp_path / "blas1", blas_threads=1),
        _start_criterion9_run(tmp_path / "one_cpu", blas_threads=2, one_cpu=True),
    ]
    for proc in pair:
        _finish(proc)

    def same(x: str, y: str) -> bool:
        return all(
            (tmp_path / x / f).read_bytes() == (tmp_path / y / f).read_bytes()
            for f in ("metrics.csv", "checkpoint.ckpt")
        )

    rerun_equal, blas_equal, helper_equal = same("a", "b"), same("a", "blas1"), same("a", "one_cpu")
    _report(
        "criterion 9 (determinism)",
        rerun_equal and blas_equal and helper_equal,
        f"metrics.csv and checkpoint.ckpt byte-identical on rerun={rerun_equal}, "
        f"at 1 vs 2 BLAS threads={blas_equal}, "
        f"with vs without the helper process (pinned to one CPU)={helper_equal}",
    )


# -- criterion 10 -------------------------------------------------------------


def test_criterion_10_partition_statistics():
    means = []
    for alpha in (0.1, 1.0, 1000.0):
        vals = []
        for seed in range(20):
            labels = np.repeat(np.arange(4), 100)
            for part in lda_partition(labels, 10, alpha, seed=seed):
                counts = np.bincount([labels[i] for i in part], minlength=4)
                vals.append(label_entropy(counts))
        means.append(float(np.mean(vals)))
    monotone = means[0] <= means[1] <= means[2]

    rng = np.random.default_rng(46)
    ok = True
    for trial in range(200):
        k = int(rng.integers(2, 7))
        labels = rng.integers(0, k, size=int(rng.integers(30, 200)))
        clients = int(rng.integers(2, 10))
        alpha = float(10 ** rng.uniform(-1.5, 3))
        parts = lda_partition(labels, clients, alpha, seed=trial)
        flat = sorted(i for p in parts for i in p)
        ok &= flat == list(range(len(labels)))
    _report(
        "criterion 10 (partition statistics)",
        monotone and ok,
        f"entropy means {[f'{m:.3f}' for m in means]} nondecreasing; 200 partitions exhaustive+disjoint",
    )


# -- criterion 11 -------------------------------------------------------------


def test_criterion_11_exit_only_equivalence():
    rng = np.random.default_rng(47)
    images = rng.random((3, 1, 8, 8)).astype(np.float32)
    everywhere_view = make_view(depth=4, dim=8, ree_everywhere=True, seed=48)
    exit_only_view = make_view(depth=4, dim=8, ree_everywhere=False, seed=48)
    ta = forward_with_exits(everywhere_view, images)
    tb = forward_with_exits(exit_only_view, images)
    logits_equal = all(
        np.array_equal(a.data, b.data) for a, b in zip(ta.exit_logits, tb.exit_logits)
    )
    acts_equal = all(
        np.array_equal(a.data, b.data) for a, b in zip(ta.activations, tb.activations)
    )
    _report(
        "criterion 11 (exit-only mode equivalence)",
        logits_equal and acts_equal,
        "E=L exit-only forward bitwise equals ree-everywhere on a 4-block model",
    )
