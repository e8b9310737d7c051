"""Per-client local optimization.

One loss per exit within budget, summed, plus a ramped distillation term
where the exit with the lowest running-estimate training loss teaches the
others. SGD with value-clipped gradients and a cosine learning-rate
schedule over rounds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import (
    ConfigError,
    DivergenceError,
    InputError,
    NonFiniteError,
    ScheduleError,
    StateError,
    TraceError,
)
from .numerics import Tensor, cross_entropy, log_softmax, softmax, tsum
from .ree import ForwardTrace, forward_with_exits, is_shared

MODE_FULL = "full"
MODE_FROZEN = "frozen"


@dataclass
class TrainConfig:
    lr0: float = 5e-2
    lr_min: float = 1e-3
    total_rounds: int = 100
    batch_size: int = 32
    local_epochs: int = 1
    clip: float = 1.0
    tau: float = 1.0
    zeta: float = 0.2
    eta_max: float = 1.0
    ramp_rounds: int = 300
    kd_enabled: bool = True
    mode: str = MODE_FULL

    def __post_init__(self):
        if not 0 < self.zeta <= 1:
            raise ConfigError("zeta must be in (0, 1]")
        if self.tau <= 0:
            raise ConfigError("tau must be positive")
        if self.clip <= 0:
            raise ConfigError("clip must be positive")
        for key in ("lr0", "lr_min", "eta_max"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")
        if self.batch_size < 1 or self.local_epochs < 1 or self.total_rounds < 1:
            raise ConfigError("batch_size, local_epochs and total_rounds must be >= 1")
        if self.mode not in (MODE_FULL, MODE_FROZEN):
            raise ConfigError(f"mode must be '{MODE_FULL}' or '{MODE_FROZEN}'")


def update_running_estimate(est: Optional[np.ndarray], new_losses, zeta: float) -> np.ndarray:
    """Exponential moving average of per-exit training CE losses; ``None`` is unset."""
    new = np.asarray(new_losses, dtype=np.float64)
    if est is None:
        return new.copy()
    if new.shape != est.shape:
        raise StateError(f"estimate length {est.shape} != new losses {new.shape}")
    return (1.0 - zeta) * est + zeta * new


def select_teacher(est: Optional[np.ndarray]) -> int:
    """Index of the exit with the lowest estimate; ties go to the shallowest."""
    if est is None:
        raise StateError("running estimate not initialized")
    return int(np.argmin(est))


def exit_ce_losses(trace: ForwardTrace, labels: np.ndarray, expected: Optional[int] = None) -> list:
    """Mean cross-entropy per recorded exit, in exit order."""
    if not trace.exit_logits:
        raise TraceError("trace holds no exit logits")
    if expected is not None and len(trace.exit_logits) != expected:
        raise TraceError(f"trace has {len(trace.exit_logits)} exits, expected {expected}")
    return [cross_entropy(logits, labels) for logits in trace.exit_logits]


def kd_loss(trace: ForwardTrace, teacher: int, tau: float, detach_teacher: bool = True):
    """Distillation from the teacher exit to every other exit.

    Sum over non-teacher exits and batch samples of the KL between the
    tempered teacher and student softmaxes, scaled by tau^2 and averaged
    over the batch. Returns (loss, degenerate); degenerate means fewer than
    two exits, with a zero loss.
    """
    logits = trace.exit_logits
    if len(logits) < 2:
        dtype = logits[0].dtype if logits else np.float32
        return Tensor(np.zeros((), dtype=dtype)), True
    if not 0 <= teacher < len(logits):
        raise TraceError(f"teacher index {teacher} outside {len(logits)} exits")

    t_logits = logits[teacher].detach() if detach_teacher else logits[teacher]
    inv_tau = 1.0 / tau
    t_probs = softmax(t_logits * inv_tau)
    t_logprobs = log_softmax(t_logits * inv_tau)
    batch = logits[teacher].shape[0]

    total = None
    for e, student in enumerate(logits):
        if e == teacher:
            continue
        s_logprobs = log_softmax(student * inv_tau)
        term = tsum(t_probs * (t_logprobs - s_logprobs))
        total = term if total is None else total + term
    return total * (tau * tau / batch), False


def eta_schedule(round_t: int, cfg: TrainConfig) -> float:
    """Linear ramp of the distillation weight, saturating at eta_max."""
    if round_t < 1:
        raise ScheduleError(f"round {round_t} < 1")
    if cfg.ramp_rounds <= 0:
        return cfg.eta_max
    return cfg.eta_max * min(round_t / cfg.ramp_rounds, 1.0)


def cosine_lr(round_t: int, cfg: TrainConfig) -> float:
    """Cosine annealing from lr0 (round 1) down to lr_min (final round)."""
    if not 1 <= round_t <= cfg.total_rounds:
        raise ScheduleError(f"round {round_t} outside [1, {cfg.total_rounds}]")
    if round_t == 1 or cfg.total_rounds == 1:
        return cfg.lr0
    if round_t == cfg.total_rounds:
        return cfg.lr_min
    frac = (round_t - 1) / (cfg.total_rounds - 1)
    return cfg.lr_min + 0.5 * (cfg.lr0 - cfg.lr_min) * (1.0 + np.cos(np.pi * frac))


def all_named_tensors(view) -> dict[str, Tensor]:
    """The view's parameter dict (perfbench/tracer.py sizes slices through this)."""
    return view.params


def trainable_tensors(view, mode: str) -> dict[str, Tensor]:
    """Frozen mode trains (and later transfers) only the shared exit stack."""
    return {name: t for name, t in view.params.items() if mode != MODE_FROZEN or is_shared(name)}


def sgd_step(params: Iterable[Tensor], lr: float, clip: float) -> None:
    for p in params:
        if p.grad is not None:
            p.data -= (lr * np.clip(p.grad, -clip, clip)).astype(p.dtype, copy=False)
            p.grad = None


def local_train(
    client,
    view,
    cfg: TrainConfig,
    round_t: int,
    rng: np.random.Generator,
    modulation: bool = True,
):
    """One client's local pass(es); returns (updated named tensors, sample count).

    Per mini-batch: forward with exits, per-exit CE, running-estimate update
    from this batch, teacher re-selection, optional distillation term, then
    a clipped SGD step at the round's learning rate. The client's running
    estimate persists on the client state across rounds.
    """
    if not client.train:
        raise InputError(f"client {client.id} has no training data")
    lr = cosine_lr(round_t, cfg)
    eta = eta_schedule(round_t, cfg)
    trainable = trainable_tensors(view, cfg.mode)
    for name, tensor in view.params.items():
        tensor.requires_grad = name in trainable

    n = len(client.train)
    expected_exits = view.config.exits_within(view.budget)
    batch_losses = []
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for b_idx, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            images = np.stack([client.train[i].image for i in idx])
            labels = np.array([client.train[i].label for i in idx])
            try:
                trace = forward_with_exits(view, images, modulation)
                ces = exit_ce_losses(trace, labels, expected=expected_exits)
                client.estimate = update_running_estimate(
                    client.estimate, [c.item() for c in ces], cfg.zeta
                )
                total = ces[0]
                for ce in ces[1:]:
                    total = total + ce
                if cfg.kd_enabled and len(ces) >= 2:
                    teacher = select_teacher(client.estimate)
                    kd, degenerate = kd_loss(trace, teacher, cfg.tau)
                    if not degenerate:
                        total = total + kd * eta
                # Block outputs that only the trace still holds die here,
                # before backward starts.
                del trace
                batch_losses.append(total.item())
                total.backward()
            except NonFiniteError as exc:
                raise DivergenceError(
                    f"non-finite loss for client {client.id} in round {round_t}, batch {b_idx}"
                ) from exc
            sgd_step(trainable.values(), lr, cfg.clip)
    client.last_train_loss = float(np.mean(batch_losses))
    return trainable, n
