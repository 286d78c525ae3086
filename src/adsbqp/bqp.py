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
d = x_tilde - x_hat, and the full step needs no line search.  Each QP
gets a start: AD2's x_bar for the global search, and for each round a
rounding of its x_hat, the last QP's answer as snapped, that meets the
row (_rounded_start).  The tilted QP's answer sits next to a vertex; from
x_hat, qp.solve_qp's active set would fix one bound per iteration to get
there.  Its certificate makes the answer independent of the start (Nocedal
& Wright, Numerical Optimization, sec. 16.5).  qp.solve_qp decides
whether the active set or its interior point answers, and BqpIterate
records which.  The smooth baselines run their penalized barrier solves
on the same schedule.  AD-SBQP calls solve_bqp only when its driver
cannot prove in closed form that the QP's minimizer lies within
SNAP_REACH / 2 of a Boolean start (driver._step_bound bounds the 1-norm
of that step), since the snap would return the start then.  The
complementarity tolerance EPS_COMP is a constant: phi(x) <= EPS_COMP puts
every coordinate of x in [0, 1] within 2 * EPS_COMP of {0, 1}, so a
"success" is Boolean to that accuracy.
penalty_homotopy and solve_bqp return Ad2Result, the one result type of an
AD2 step, AD-SBQP's and the baselines' alike.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .qp import QpProblem, solve_qp

__all__ = [
    "Ad2Result",
    "BqpIterate",
    "penalty_phi",
    "penalty_grad",
    "penalty_homotopy",
    "solve_bqp",
]

# Round i runs at rho = RHO0 * BETA**i <= MAX_PENALTY until phi(x) <=
# EPS_COMP or the round moves x by <= STALL_TOL.
RHO0 = 1.0
BETA = 2.0
MAX_PENALTY = 2.0 ** 32
STALL_TOL = 1e-9
EPS_COMP = 1e-10
# Box QP tolerance at rho <= 1; it scales with rho above that.
QP_TOL = 1e-10
# An iterate within SNAP_REACH of a Boolean point in every coordinate is
# rounded onto it, unless that violates the row by more than SNAP_ROW_TOL.
SNAP_REACH = 1e-6
SNAP_ROW_TOL = 1e-8
# What solve_qp raises on a normal matrix that fails its factor
# (LinAlgError) or on non-finite data (ValueError); solve_bqp reports both
# as the status "qp_failed".
_QP_ERRORS = (np.linalg.LinAlgError, ValueError)


@dataclass
class BqpIterate:
    rho: float
    objective: float
    complementarity: float
    qp_iterations: int  # of the path below
    qp_path: str  # solve_qp's path, "active_set" | "interior_point"; "barrier" in the baselines


@dataclass
class Ad2Result:
    """What penalty_homotopy, solve_bqp and every AD2 step ad2(prob, P_bar,
    x_bar, lambda_bar) return."""

    x_star: np.ndarray | None  # None when solve_bqp's global search raised
    status: str  # "success" | "complementarity_not_met" | a failed round's status
    trace: list[BqpIterate]
    # (P, lambda) = driver.ad1(prob, x_star) when the step has solved it.
    power: tuple[np.ndarray, float] | None = None


def penalty_phi(x: np.ndarray) -> float:
    """Complementarity measure sum_i x_i (1 - x_i)."""
    x = np.asarray(x, dtype=float)
    return float(x @ (1.0 - x))


def penalty_grad(x: np.ndarray) -> np.ndarray:
    return 1.0 - 2.0 * np.asarray(x, dtype=float)


def _snap_boolean(qp: QpProblem, x: np.ndarray) -> np.ndarray:
    """Round near-Boolean coordinates exactly onto {0,1} when the row stays
    satisfied; mirrors the exact-bound activity an active-set solver would
    report."""
    snapped = np.round(x)
    if np.max(np.abs(snapped - x), initial=0.0) > SNAP_REACH:
        return x
    if qp.a @ snapped - qp.u > SNAP_ROW_TOL:
        return x
    return snapped


def _rounded_start(qp: QpProblem, x_hat: np.ndarray) -> np.ndarray:
    """A start for a round's QP: round(x_hat) when it meets the row;
    otherwise that rounding with the least decided coordinates (|x_hat_i -
    1/2| ascending) moved to the bound that lowers a'x, the last one only
    part of the way, so that the row holds with equality.  x_hat itself
    when the moves run out."""
    a, v = qp.a, np.round(x_hat)
    excess = float(a @ v - qp.u)
    if excess <= 0.0:
        return v
    for i in np.argsort(np.abs(x_hat - 0.5), kind="stable"):
        bound = 0.0 if a[i] > 0.0 else 1.0
        drop = a[i] * (v[i] - bound)
        if drop <= 0.0:  # v_i is at that bound already, or a_i = 0
            continue
        if drop >= excess:
            v[i] -= excess / a[i]
            return v
        v[i] = bound
        excess -= drop
    return x_hat


def penalty_homotopy(step, x0: np.ndarray) -> Ad2Result:
    """The rho schedule shared by AD-SBQP and the smooth baselines.

    step(rho, x_hat) runs one round from x_hat at penalty weight rho and
    returns (x, objective, iterations, path), or a status string when the
    round fails, which ends the homotopy at x_hat.  Returns Ad2Result(x,
    status, trace) with status "success" once phi(x) <= EPS_COMP and
    "complementarity_not_met" when a round moves x by at most STALL_TOL or
    the schedule runs out first; the stalled round is recorded.
    """
    x_hat = x0
    rho = RHO0
    trace: list[BqpIterate] = []
    while True:
        result = step(rho, x_hat)
        if isinstance(result, str):
            return Ad2Result(x_hat, result, trace)
        x_new, objective, iterations, path = result
        comp = penalty_phi(x_new)
        trace.append(BqpIterate(rho, objective, comp, iterations, path))
        moved = np.max(np.abs(x_new - x_hat), initial=0.0)
        x_hat = x_new
        if comp <= EPS_COMP:
            return Ad2Result(x_hat, "success", trace)
        if moved <= STALL_TOL or rho * BETA > MAX_PENALTY:
            return Ad2Result(x_hat, "complementarity_not_met", trace)
        rho *= BETA


def solve_bqp(qp: QpProblem, start: np.ndarray | None = None) -> Ad2Result:
    """Global search once, then the penalty homotopy from its minimizer
    unless that is already Boolean to EPS_COMP.

    qp is the QP over the box [0, 1]^n that driver.build_ad2_subproblem
    builds, and start a point that meets its row, x_bar for AD2 (None
    gives none).  The global search minimizes qp itself from start,
    complementarity ignored, and each round's QP starts at
    _rounded_start(qp, x_hat), next to the vertex the tilted QP's answer
    sits at; solve_qp decides which path answers.  Each local search
    (round) minimizes it with the linearized penalty rho *
    penalty_grad(x_hat) folded into its linear term, and
    moves to that minimizer x_tilde, no line search: phi(x_hat + d) =
    phi(x_hat) + grad phi(x_hat)'d - ||d||^2 exactly, and x_tilde minimizes
    the tilted QP over a set that holds x_hat, so M(x_tilde) <= M(x_hat) -
    rho ||d||^2 - 0.5 d'Qd with d = x_tilde - x_hat.  The global minimizer and every round's iterate are
    snapped onto {0,1} when they lie within SNAP_REACH of it in every
    coordinate, so the homotopy ends at the first iterate that identifies
    the Boolean point; a round that moves x by at most STALL_TOL ends it as
    "complementarity_not_met".  A QP that is not solved to optimality ends
    the solve with the QP's status, and one whose solve raises (a failed
    factor, non-finite data) with "qp_failed": at the last iterate, or with
    x_star None when the global search raised.
    """
    def step(rho, x_hat):
        # The tilted linear term grows like rho, so the subproblem tolerance
        # scales with it; the achieved x-space accuracy stays ~QP_TOL.
        try:
            sol = solve_qp(qp.with_g(qp.g + rho * penalty_grad(x_hat)), tol=QP_TOL * max(1.0, rho),
                           start=_rounded_start(qp, x_hat))
        except _QP_ERRORS:
            return "qp_failed"
        if sol.status != "optimal":
            return sol.status
        x_new = _snap_boolean(qp, sol.x_star)
        return x_new, qp.objective(x_new), sol.iterations, sol.path

    try:
        sol = solve_qp(qp, tol=QP_TOL, start=start)
    except _QP_ERRORS:
        return Ad2Result(None, "qp_failed", [])
    if sol.status != "optimal":
        return Ad2Result(sol.x_star, sol.status, [])
    x_hat = _snap_boolean(qp, sol.x_star)
    if penalty_phi(x_hat) > EPS_COMP:
        return penalty_homotopy(step, x_hat)
    return Ad2Result(x_hat, "success", [])
