"""Central-difference gradient checker."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from reefl.errors import NonFiniteError
from reefl.numerics import Tensor, no_grad


@dataclass
class GradCheckReport:
    per_param: dict = field(default_factory=dict)
    max_rel_err: float = 0.0
    tol: float = 1e-4
    passed: bool = False
    note: str = ""

    def __str__(self) -> str:
        status = "OK" if self.passed else "FAIL"
        return f"grad_check {status}: max rel err {self.max_rel_err:.3e} (tol {self.tol:.1e}) {self.note}"


def _norm_rel_err(fd: np.ndarray, ad: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(fd)), float(np.linalg.norm(ad)))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(fd - ad)) / denom


def grad_check(
    f: Callable[[], Tensor],
    params: Mapping[str, Tensor],
    eps: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare reverse-mode gradients of scalar ``f()`` against central differences.

    ``f`` must be deterministic and close over ``params``. Every scalar
    component of every parameter is perturbed by +/- eps. The per-parameter
    error is ||fd - ad||_2 / max(||fd||_2, ||ad||_2).
    """
    for p in params.values():
        p.requires_grad = True
        p.grad = None

    try:
        loss = f()
        loss.backward()
    except NonFiniteError as exc:
        return GradCheckReport(tol=tol, max_rel_err=float("inf"), passed=False, note=str(exc))

    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }

    report = GradCheckReport(tol=tol)
    worst = 0.0
    with no_grad():
        for name, p in params.items():
            flat = p.data.reshape(-1)
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                try:
                    f_plus = f().item()
                    flat[i] = orig - eps
                    f_minus = f().item()
                finally:
                    flat[i] = orig
                fd[i] = (f_plus - f_minus) / (2.0 * eps)
            if not np.all(np.isfinite(fd)):
                return GradCheckReport(
                    tol=tol, max_rel_err=float("inf"), passed=False,
                    note=f"non-finite finite-difference estimate for {name}",
                )
            err = _norm_rel_err(fd.reshape(p.shape), analytic[name])
            report.per_param[name] = err
            worst = max(worst, err)

    report.max_rel_err = worst
    report.passed = worst < tol
    return report
