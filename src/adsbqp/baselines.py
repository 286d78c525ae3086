"""Comparison methods sharing the alternating-direction loop.

AD-SPen keeps the quadratic switch model but adds the exact (indefinite)
quadratic penalty; AD-NSPen keeps the full nonlinear switch problem and adds
the penalty to its objective.  Both are solved by the log-barrier NLP solver
with the same penalty escalation schedule as the Boolean-QP method.  The
exhaustive enumeration oracle provides ground truth at desk scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
import numpy as np

from . import rate as rate_mod
from .bqp import BqpIterate, penalty_phi, penalty_grad
from .driver import (
    Ad2Result,
    AdConfig,
    Ad1InfeasibleError,
    _ad_loop,
    ad1,
    build_ad2_subproblem,
)
from .nlp import InfeasibleProblemError, NlpProblem, find_strictly_feasible, solve_barrier
from .rate import EsrProblem

__all__ = [
    "MethodReport",
    "solve_ad_spen",
    "solve_ad_nspen",
    "enumerate_selections",
]

METHOD_NAMES = ("AD-SBQP", "AD-SPen", "AD-NSPen", "ENUM")


@dataclass
class MethodReport:
    method: str
    objective: float
    complementarity: float
    iterations: int
    wall_time: float
    status: str

    def __post_init__(self) -> None:
        if self.method not in METHOD_NAMES:
            raise ValueError(f"unknown method name {self.method!r}")


def _interior_start(nlp: NlpProblem, x_hat: np.ndarray):
    """Strictly feasible start near x_hat, or None when none exists."""
    x0 = np.clip(x_hat, 1e-6, 1.0 - 1e-6)
    try:
        return find_strictly_feasible(nlp, x0)
    except InfeasibleProblemError:
        return None


def _penalty_escalation(cfg: AdConfig, solve_at_rho, x_bar: np.ndarray) -> Ad2Result:
    """Shared rho loop: solve the penalized subproblem, check phi, escalate."""
    bqp = cfg.bqp
    rho = bqp.rho0
    x_hat = np.asarray(x_bar, dtype=float).copy()
    trace: list[BqpIterate] = []
    status = "complementarity_not_met"
    for _ in range(bqp.max_outer):
        result = solve_at_rho(rho, x_hat)
        if result is None:
            status = "stalled"
            break
        x_hat, objective, inner_iters = result
        comp = penalty_phi(x_hat)
        trace.append(BqpIterate(rho, objective, comp, float("nan"), inner_iters))
        if comp <= bqp.eps_comp:
            status = "success"
            break
        if rho * bqp.beta > bqp.max_penalty:
            break
        rho *= bqp.beta
    return Ad2Result(x_hat, status, trace)


def _spen_ad2(prob, P_star, x_bar, lambda_bar, cfg: AdConfig) -> Ad2Result:
    """Quadratic switch model plus the exact quadratic penalty rho*x'(1-x)."""
    qp, _ = build_ad2_subproblem(prob, P_star, x_bar, lambda_bar, cfg.hessian_shift_floor)
    n = qp.n
    a = qp.A[0]
    u = float(qp.u[0])

    def solve_at_rho(rho, x_hat):
        # Gradient-based objective scaling keeps the barrier subproblem
        # well-conditioned when the penalty weight dwarfs the power cost.
        s = 1.0 / max(1.0, rho)

        def objective(x):
            return s * (qp.objective(x) + rho * penalty_phi(x))

        def gradient(x):
            return s * (qp.Q @ x + qp.g + rho * penalty_grad(x))

        def hessian(x):
            return s * (qp.Q - 2.0 * rho * np.eye(n))

        nlp = NlpProblem(
            n=n,
            objective=objective,
            gradient=gradient,
            hessian=hessian,
            lower=np.zeros(n),
            upper=np.ones(n),
            m=1,
            constraints=lambda x: np.array([a @ x - u]),
            constraints_jac=lambda x: a[None, :],
            constraints_hess=None,
        )
        x0 = _interior_start(nlp, x_hat)
        if x0 is None:
            return None
        sol = solve_barrier(nlp, tol=cfg.nlp_tol, z0=x0)
        value = qp.objective(sol.z_star) + rho * penalty_phi(sol.z_star)
        return sol.z_star, value, sol.iterations

    return _penalty_escalation(cfg, solve_at_rho, x_bar)


def _nspen_ad2(prob, P_star, x_bar, lambda_bar, cfg: AdConfig) -> Ad2Result:
    """Full nonlinear switch problem with the penalty added to the cost."""
    n = prob.n_tx
    f_lin = P_star.sum(axis=1) + prob.cfg.p_rf

    def cons(x):
        return np.array([prob.r_th - rate_mod.sum_rate(P_star, x, prob)])

    def cons_jac(x):
        return -rate_mod.grad_rate_wrt_switch(P_star, x, prob)[None, :]

    def cons_hess(x, w):
        return -w[0] * rate_mod.hess_rate_wrt_switch(P_star, x, prob)

    def solve_at_rho(rho, x_hat):
        # Same gradient-based objective scaling as the quadratic variant.
        s = 1.0 / max(1.0, rho)

        def objective(x):
            return s * (float(f_lin @ x) + rho * penalty_phi(x))

        def gradient(x):
            return s * (f_lin + rho * penalty_grad(x))

        def hessian(x):
            return s * (-2.0 * rho * np.eye(n))

        nlp = NlpProblem(
            n=n,
            objective=objective,
            gradient=gradient,
            hessian=hessian,
            lower=np.zeros(n),
            upper=np.ones(n),
            m=1,
            constraints=cons,
            constraints_jac=cons_jac,
            constraints_hess=cons_hess,
        )
        x0 = _interior_start(nlp, x_hat)
        if x0 is None:
            return None
        sol = solve_barrier(nlp, tol=cfg.nlp_tol, z0=x0)
        value = float(f_lin @ sol.z_star) + rho * penalty_phi(sol.z_star)
        return sol.z_star, value, sol.iterations

    return _penalty_escalation(cfg, solve_at_rho, x_bar)


def solve_ad_spen(prob: EsrProblem, cfg: AdConfig | None = None):
    return _ad_loop(prob, cfg or AdConfig(), _spen_ad2, "AD-SPen")


def solve_ad_nspen(prob: EsrProblem, cfg: AdConfig | None = None):
    return _ad_loop(prob, cfg or AdConfig(), _nspen_ad2, "AD-NSPen")


def enumerate_selections(
    prob: EsrProblem,
    n_limit: int = 16,
    cfg: AdConfig | None = None,
    order=None,
):
    """Ground truth by exhausting every Boolean switch vector.

    Runs the power subproblem for each feasible selection and reports the
    cheapest one.  The result is invariant to enumeration order: objectives
    are deterministic per selection and ties break on the smaller bitmask.
    Returns (report, x_best, P_best).
    """
    n = prob.n_tx
    if n > n_limit:
        raise ValueError(
            f"enumeration refused: {n} antennas exceeds the limit of {n_limit}"
        )
    cfg = cfg or AdConfig()
    masks = range(1, 2 ** n) if order is None else order
    best = None  # (objective, mask, x, P)
    evaluated = 0
    t0 = time.perf_counter()
    for mask in masks:
        x = np.array([(mask >> i) & 1 for i in range(n)], dtype=float)
        try:
            P, _, _ = ad1(prob, x, cfg)
        except Ad1InfeasibleError:
            continue
        evaluated += 1
        obj = rate_mod.economic_objective(P, x, prob)
        key = (obj, mask)
        if best is None or key < (best[0], best[1]):
            best = (obj, mask, x, P)
    wall = time.perf_counter() - t0
    if best is None:
        report = MethodReport("ENUM", float("nan"), float("nan"), evaluated, wall, "infeasible")
        return report, None, None
    obj, _, x_best, P_best = best
    report = MethodReport("ENUM", obj, penalty_phi(x_best), evaluated, wall, "success")
    return report, x_best, P_best
