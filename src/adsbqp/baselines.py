"""Comparison methods sharing the alternating-direction loop.

AD-SPen keeps the quadratic switch model but adds the exact (indefinite)
quadratic penalty; AD-NSPen keeps the full nonlinear switch problem and adds
the penalty to its objective.  Both run bqp.penalty_homotopy, the rho
schedule of the Boolean-QP method, with a log-barrier NLP solve per round;
they differ only in the objective and the constraint they hand to it.  The
exhaustive enumeration oracle provides ground truth at desk scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
import numpy as np

from . import rate as rate_mod
from .bqp import penalty_grad, penalty_homotopy, penalty_phi
from .driver import (
    NLP_TOL,
    Ad2Result,
    AdConfig,
    _ad_loop,
    ad1,
    build_ad2_subproblem,
    search_by_bound,
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
# Selections bounded per batch in enumerate_selections.
_BLOCK = 4096


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


def _penalized_barrier_ad2(x_bar: np.ndarray, f, grad_f, hess_f, *,
                           constraints, constraints_jac, constraints_hess=None) -> Ad2Result:
    """Penalty homotopy over min f(x) + rho * x'(1-x) on the box under one
    constraint, each round a log-barrier solve from the last iterate.

    The method supplies f with its gradient and Hessian and the constraint
    callbacks of NlpProblem.  A round that finds no strictly feasible start
    near the last iterate ends the homotopy as "stalled"; a barrier solve
    that ends "stalled" or "max_iter" ends it with that status, and one that
    raises RuntimeError ends it as "barrier_failed", as solve_bqp ends on a
    QP that is not solved to optimality.
    """
    n = x_bar.size
    eye = np.eye(n)

    def step(rho, x_hat):
        # Gradient-based objective scaling keeps the barrier subproblem
        # well-conditioned when the penalty weight dwarfs the power cost.
        s = 1.0 / max(1.0, rho)
        nlp = NlpProblem(
            n=n,
            objective=lambda x: s * (f(x) + rho * penalty_phi(x)),
            gradient=lambda x: s * (grad_f(x) + rho * penalty_grad(x)),
            hessian=lambda x: s * (hess_f(x) - 2.0 * rho * eye),
            lower=np.zeros(n), upper=np.ones(n), m=1,
            constraints=constraints,
            constraints_jac=constraints_jac,
            constraints_hess=constraints_hess,
        )
        try:
            x0 = find_strictly_feasible(nlp, np.clip(x_hat, 1e-6, 1.0 - 1e-6))
        except InfeasibleProblemError:
            return "stalled"
        try:
            sol = solve_barrier(nlp, tol=NLP_TOL, z0=x0)
        except RuntimeError:
            return "barrier_failed"
        if sol.status != "optimal":
            return sol.status
        x = sol.z_star
        return x, f(x) + rho * penalty_phi(x), sol.iterations

    return Ad2Result(*penalty_homotopy(step, x_bar))


def _spen_ad2(prob, P_star, x_bar, lambda_bar) -> Ad2Result:
    """Quadratic switch model plus the exact quadratic penalty rho*x'(1-x)."""
    qp, _ = build_ad2_subproblem(prob, P_star, x_bar, lambda_bar)
    a, u = qp.A[0], float(qp.u[0])
    return _penalized_barrier_ad2(
        x_bar, qp.objective, lambda x: qp.Q @ x + qp.g, lambda x: qp.Q,
        constraints=lambda x: np.array([a @ x - u]), constraints_jac=lambda x: a[None, :])


def _nspen_ad2(prob, P_star, x_bar, lambda_bar) -> Ad2Result:
    """Full nonlinear switch problem with the penalty added to the cost."""
    f_lin = P_star.sum(axis=1) + prob.cfg.p_rf
    return _penalized_barrier_ad2(
        x_bar, lambda x: float(f_lin @ x), lambda x: f_lin, lambda x: 0.0,  # linear cost
        constraints=lambda x: np.array([prob.r_th - rate_mod.sum_rate(P_star, x, prob)]),
        constraints_jac=lambda x: -rate_mod.grad_rate_wrt_switch(P_star, x, prob)[None, :],
        constraints_hess=lambda x, w: -w[0] * rate_mod.hess_rate_wrt_switch(P_star, x, prob))


def solve_ad_spen(prob: EsrProblem, cfg: AdConfig | None = None):
    return _ad_loop(prob, cfg or AdConfig(), _spen_ad2, "AD-SPen")


def solve_ad_nspen(prob: EsrProblem, cfg: AdConfig | None = None):
    return _ad_loop(prob, cfg or AdConfig(), _nspen_ad2, "AD-NSPen")


def _selections(masks: np.ndarray, n: int) -> np.ndarray:
    """One 0/1 row per bitmask: x_i = bit i of the mask."""
    return ((masks[:, None] >> np.arange(n)) & 1).astype(float)


def enumerate_selections(
    prob: EsrProblem,
    n_limit: int = 16,
    order=None,
):
    """Ground truth: the cheapest of every Boolean switch vector, by branch and bound.

    Pass 1 decides every selection (bitmask) at once with the exact
    water-filling test and bounds its objective below by the least total
    power plus the standby draw (rate.selection_bounds), in blocks of
    _BLOCK masks so the work arrays do not grow with 2^N.  Pass 2 solves
    the power subproblem of the feasible selections in ascending bound and
    stops at the first bound above the cheapest objective found
    (driver.search_by_bound), so the result is the exhaustive one.  It is
    invariant to enumeration order: objectives are deterministic per
    selection and ties break on the smaller bitmask.  The report's
    iterations count the feasible selections.  Returns (report, x_best,
    P_best).
    """
    n = prob.n_tx
    if n > n_limit:
        raise ValueError(
            f"enumeration refused: {n} antennas exceeds the limit of {n_limit}"
        )
    t0 = time.perf_counter()
    masks = np.arange(1, 2 ** n) if order is None else np.fromiter(order, dtype=np.int64)
    feasible = np.empty(masks.size, dtype=bool)
    bounds = np.empty(masks.size)
    for start in range(0, masks.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        feasible[block], bounds[block] = rate_mod.selection_bounds(_selections(masks[block], n), prob)
    masks = masks[feasible]
    best = search_by_bound(prob, bounds[feasible], masks, lambda m: _selections(np.array([m]), n)[0], ad1)
    wall = time.perf_counter() - t0
    if best is None:
        report = MethodReport("ENUM", float("nan"), float("nan"), masks.size, wall, "infeasible")
        return report, None, None
    obj, _, x_best, P_best = best
    report = MethodReport("ENUM", obj, penalty_phi(x_best), masks.size, wall, "success")
    return report, x_best, P_best
