"""Penalty-homotopy Boolean QP over the relaxed box [0, 1]^n.

The Boolean requirement x in {0,1}^n is handled through the complementarity
penalty phi(x) = x'(1 - x), which is zero exactly at Boolean points.
penalty_homotopy owns the rho schedule: it starts at RHO0, runs one round
per penalty weight and multiplies rho by BETA until the complementarity
tolerance is met, a round moves x by at most STALL_TOL in the max norm or
the weight would pass MAX_PENALTY.  solve_bqp's round minimizes the convex
QP with the penalty replaced by its tangent rho * (1 - 2*x_hat)' x and
moves to that minimizer x_tilde, snapped onto {0,1} when it is within
SNAP_REACH.  phi is concave, so the tilted QP majorizes the merit M = q +
rho * phi (the concave-convex procedure, Yuille & Rangarajan 2003; DCA, Le
Thi & Pham Dinh 2018): M(x_tilde) <= M(x_hat) - rho ||d||^2 - 0.5 d'Qd with
d = x_tilde - x_hat, and the full step needs no line search.  The smooth
baselines run their penalized barrier solves on the same schedule.  AD-SBQP
calls solve_bqp only when its driver cannot prove in closed form that the
QP's minimizer lies within SNAP_REACH / 2 of a Boolean start
(driver._step_bound bounds the 1-norm of that step), since the snap would
return the start then.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import numpy as np

from .qp import QpProblem, QpSolution, solve_qp

__all__ = [
    "BqpIterate",
    "BqpResult",
    "penalty_phi",
    "penalty_grad",
    "global_search",
    "local_search",
    "penalty_homotopy",
    "solve_bqp",
]

# Round i runs at rho = RHO0 * BETA**i <= MAX_PENALTY until phi(x) <=
# EPS_COMP (the default tolerance) or the round moves x by <= STALL_TOL.
RHO0 = 1.0
BETA = 2.0
MAX_PENALTY = 2.0 ** 32
STALL_TOL = 1e-9
EPS_COMP = 1e-10
# Box QP tolerance at rho <= 1; it scales with rho above that.
QP_TOL = 1e-10
# An iterate within SNAP_REACH of a Boolean point in every coordinate is
# rounded onto it.
SNAP_REACH = 1e-6
# What solve_qp raises on a normal matrix that fails its second factor
# (LinAlgError) or on non-finite data (ValueError); solve_bqp reports both
# as the status "qp_failed".
_QP_ERRORS = (np.linalg.LinAlgError, ValueError)


@dataclass
class BqpIterate:
    rho: float
    objective: float
    complementarity: float
    qp_iterations: int


@dataclass
class BqpResult:
    x_star: np.ndarray | None  # None when the global search raised
    trace: list[BqpIterate]
    status: str  # "success" | "complementarity_not_met" | qp failure status
    complementarity: float
    objective: float


def penalty_phi(x: np.ndarray) -> float:
    """Complementarity measure sum_i x_i (1 - x_i)."""
    x = np.asarray(x, dtype=float)
    return float(x @ (1.0 - x))


def penalty_grad(x: np.ndarray) -> np.ndarray:
    return 1.0 - 2.0 * np.asarray(x, dtype=float)


def _boxed(qp: QpProblem) -> QpProblem:
    """qp over the box [0, 1]^n: qp itself when its bounds already are the
    box (as build_ad2_subproblem builds it), else a copy with them."""
    if (qp.lower == 0.0).all() and (qp.upper == 1.0).all():
        return qp
    return replace(qp, lower=np.zeros(qp.n), upper=np.ones(qp.n))


def global_search(qp: QpProblem, tol: float = QP_TOL) -> QpSolution:
    """Minimize the plain QP over the box, complementarity ignored."""
    return solve_qp(_boxed(qp), tol=tol)


def local_search(qp: QpProblem, x_hat: np.ndarray, rho: float, tol: float = QP_TOL) -> QpSolution:
    """Minimize the QP with the linearized penalty folded into the linear term.

    The tilted QP shares everything but its linear term with qp's box QP."""
    return solve_qp(_boxed(qp).with_g(qp.g + rho * penalty_grad(x_hat)), tol=tol)


def _snap_boolean(qp: QpProblem, x: np.ndarray, feas_tol: float = 1e-8) -> np.ndarray:
    """Round near-Boolean coordinates exactly onto {0,1} when the general
    inequality rows stay satisfied; mirrors the exact-bound activity an
    active-set solver would report."""
    snapped = np.round(x)
    if np.max(np.abs(snapped - x), initial=0.0) > SNAP_REACH:
        return x
    if qp.m and np.any(qp.A @ snapped - qp.u > feas_tol):
        return x
    return snapped


def penalty_homotopy(step, x0: np.ndarray, eps_comp: float):
    """The rho schedule shared by AD-SBQP and the smooth baselines.

    step(rho, x_hat) runs one round from x_hat at penalty weight rho and
    returns (x, objective, iterations), or a status string when the round
    fails, which ends the homotopy at x_hat.  Returns (x, status, trace)
    with status "success" once phi(x) <= eps_comp and
    "complementarity_not_met" when a round moves x by at most STALL_TOL or
    the schedule runs out first; the stalled round is recorded.
    """
    x_hat = x0
    rho = RHO0
    trace: list[BqpIterate] = []
    while True:
        result = step(rho, x_hat)
        if isinstance(result, str):
            return x_hat, result, trace
        x_new, objective, iterations = result
        comp = penalty_phi(x_new)
        trace.append(BqpIterate(rho, objective, comp, iterations))
        moved = np.max(np.abs(x_new - x_hat), initial=0.0)
        x_hat = x_new
        if comp <= eps_comp:
            return x_hat, "success", trace
        if moved <= STALL_TOL or rho * BETA > MAX_PENALTY:
            return x_hat, "complementarity_not_met", trace
        rho *= BETA


def solve_bqp(qp: QpProblem, eps_comp: float = EPS_COMP) -> BqpResult:
    """Global search once, then the penalty homotopy from its minimizer
    unless that is already Boolean to eps_comp.

    Each round moves to the tilted QP's minimizer x_tilde, no line search:
    phi(x_hat + d) = phi(x_hat) + grad phi(x_hat)'d - ||d||^2 exactly, and
    x_tilde minimizes the tilted QP over a set that holds x_hat, so M(x_tilde)
    <= M(x_hat) - rho ||d||^2 - 0.5 d'Qd with d = x_tilde - x_hat.  The
    global minimizer and every round's iterate are snapped onto {0,1} when
    they lie within SNAP_REACH of it in every coordinate, so the homotopy
    ends at the first iterate that identifies the Boolean point; a round
    that moves x by at most STALL_TOL ends it as "complementarity_not_met".
    A QP that is not solved to optimality ends the solve with the QP's
    status, and one whose solve raises (a failed factor, non-finite data)
    with "qp_failed": at the last iterate, or with x_star None when the
    global search raised.
    """
    boxed = _boxed(qp)

    def step(rho, x_hat):
        # The tilted linear term grows like rho, so the subproblem tolerance
        # scales with it; the achieved x-space accuracy stays ~QP_TOL.
        try:
            sol = local_search(qp, x_hat, rho, tol=QP_TOL * max(1.0, rho))
        except _QP_ERRORS:
            return "qp_failed"
        if sol.status != "optimal":
            return sol.status
        x_new = _snap_boolean(boxed, sol.x_star)
        return x_new, boxed.objective(x_new), sol.iterations

    try:
        sol = global_search(qp)
    except _QP_ERRORS:
        return BqpResult(None, [], "qp_failed", float("nan"), float("nan"))
    x_hat, status, trace = sol.x_star, sol.status, []
    if status == "optimal":
        x_hat, status = _snap_boolean(boxed, x_hat), "success"
        if penalty_phi(x_hat) > eps_comp:
            x_hat, status, trace = penalty_homotopy(step, x_hat, eps_comp)
    return BqpResult(x_hat, trace, status, penalty_phi(x_hat), boxed.objective(x_hat))
