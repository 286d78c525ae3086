"""Alternating-direction loop: power allocation (AD1) and switch selection (AD2).

AD1 minimizes transmit power at fixed switches over the K per-user
received totals: it water-fills them with rate.water_filling, which also
decides its feasibility exactly, at a level raised to keep the rate slack
a barrier solve ends with.  AD2 is one pure step ad2(prob, P_bar, x_bar,
lambda_bar) -> bqp.Ad2Result from the AD1 point: it minimizes a convex
quadratic model of the Lagrangian in x over the linearized rate constraint
via the penalty-homotopy Boolean QP, whose QPs start at x_bar (it meets
the row with slack mu / lambda) so that qp.solve_qp's active set can
answer them.  At a Boolean start x_bar
AD-SBQP first tries a closed-form certificate (_step_bound): a multiplier
nu >= 0 whose reduced costs f + nu a are positive where x_bar is 0 and
negative where it is 1 bounds the QP's step by ||x - x_bar||_1 <= nu slack
/ min |f + nu a|.  When that bound is at most half of bqp.SNAP_REACH, AD2
returns x_bar without building the QP, as solve_bqp would after snapping.
The loop holds the pair (P_bar, x_bar) = (ad1(x_bar), x_bar) that its last
AD1 computed, and every exit returns that pair.  It stops as converged
when AD2 returns its start x_bar bit for bit (AD1 and AD2 are
deterministic, so the next iteration could only repeat this one) or,
before AD2, when the new AD1 point agrees with the last one within
EPS_TERM (that AD2 could only confirm); as max_iter when MAX_AD_ITER AD2
steps have run; or as infeasible_selection when AD2 chose switches AD1
cannot serve.  Nothing is settable: every tolerance and limit is a module
constant, AD2's complementarity tolerance bqp.EPS_COMP among them.

Every exact decision about 0/1 selections is one search,
cheapest_selection(prob, X, bounds, incumbent): candidate rows in,
visited in ascending water-filling bound with ties to the earlier row and
to the incumbent, the cheapest (objective, x, P) out.  AD2's Boolean
completion, solve's all-on incumbent and baselines.enumerate_selections
are its callers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable
import numpy as np

from . import rate as rate_mod
from .bqp import SNAP_REACH, Ad2Result, penalty_phi, solve_bqp
# solve_barrier is unused here but stays importable as driver.solve_barrier,
# a call site that perfbench's tracer tests wrap.
from .nlp import MU_MIN, InfeasibleProblemError, solve_barrier  # noqa: F401
from .qp import QpProblem, _least_eigenvalue
from .rate import EsrProblem

__all__ = [
    "AdConfig",
    "AdIterate",
    "Solution",
    "ad1",
    "bit_rows",
    "build_ad2_subproblem",
    "cheapest_selection",
    "solve",
]


# The AD loop converges before an AD2 once hypot(||dP||, ||dx||) <= EPS_TERM
# between two AD1 points.
EPS_TERM = 1e-6
# AD2 steps before the AD loop ends as "max_iter".
MAX_AD_ITER = 20
# Least eigenvalue of the AD2 curvature matrix after the shift.
HESSIAN_SHIFT_FLOOR = 1e-8


@dataclass(frozen=True)
class AdConfig:
    """No field: the AD loop has no setting.  It stays constructible only
    because the benchmark harness builds cli.RunManifest(ad_config=AdConfig())."""


@dataclass
class AdIterate:
    index: int
    objective: float
    complementarity: float
    rate_residual: float
    dp_norm: float
    dx_norm: float
    lambda_bar: float
    ad1_time: float
    ad2_time: float
    ad2_status: str
    ad2_trace: list = field(default_factory=list)


@dataclass
class Solution:
    P_star: np.ndarray
    x_star: np.ndarray
    objective: float
    complementarity: float
    rate_residual: float
    row_cap_residual: float
    status: str
    iterations: int


class Ad1InfeasibleError(InfeasibleProblemError):
    """The rate threshold is out of reach within the power budget at the given
    switch vector, by rate.water_filling's exact test, or every switch is off."""


def ad1(prob: EsrProblem, x_bar: np.ndarray):
    """Optimal power allocation at fixed switches, by water-filling.

    Minimizes sum_ij x_i p_ij subject to the rate threshold, per-antenna row
    caps and P >= 0.  Cost and rate depend on P only through the per-user
    received totals a_j = sum_i x_i p_ij, and the row caps only through the
    budget sum_j a_j <= p_th * sum_i x_i, so the problem lives on the K
    totals, with g_j the SNR per unit total.  rate.water_filling decides
    feasibility and gives the level nu at which the m served users reach
    r_th.  The level is then raised to nu' = nu exp(mu / (m nu)) with
    mu = nlp.MU_MIN, so that the rate clears r_th by mu / lambda, the
    slack a barrier solve ends with and the smooth baselines' stall
    depends on; nu' is capped at the level that spends the budget.  Each
    a_j = max(0, nu' - 1/g_j), computed as expm1(log(nu' g_j)) / g_j so
    that no digit is lost at low SNR, and each active row (x_i above
    rate.BOOLEAN_TOL) holds a / sum x_i while the others are zero.  An
    unreachable threshold raises Ad1InfeasibleError.  Returns (P_star,
    lambda_bar), lambda_bar = nu' ln2 / B the rate multiplier.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    active = np.flatnonzero(x_bar > rate_mod.BOOLEAN_TOL)
    if active.size == 0:
        raise Ad1InfeasibleError("all antennas are switched off")
    x_sum = float(x_bar[active].sum())
    budget = prob.cfg.p_th * x_sum
    g = ((x_bar ** 2) @ prob.gains) / prob.sigma  # SNR per unit received total
    feasible, least_total, log_top, served = (
        v[0] for v in rate_mod.water_filling(g, budget, prob.r_th, prob.bandwidth))
    if not feasible:
        raise Ad1InfeasibleError(
            f"rate threshold {prob.r_th:.6g} not met within the power budget {budget:.6g}")
    top = float(g.max())
    spread = served * math.exp(log_top) / top  # m nu: d(sum a) / d(log nu)
    log_top += min(MU_MIN / spread, math.log1p((budget - least_total) / spread))
    on = g > 0.0
    a = np.zeros(prob.n_users)
    a[on] = np.maximum(0.0, np.expm1(log_top - np.log1p((top - g[on]) / g[on]))) / g[on]
    P_star = np.zeros((prob.n_tx, prob.n_users))
    P_star[active] = a / x_sum
    return P_star, math.exp(log_top) / top * math.log(2.0) / prob.bandwidth


def _linear_model(prob: EsrProblem, P_star: np.ndarray, x_bar: np.ndarray):
    """The first-order part of AD2's switch model at (P_star, x_bar): (f, a, slack).

    f = P_star.sum(1) + p_rf is the cost per unit of each switch, a = -grad_x
    rate the row of the linearized rate constraint a'(x - x_bar) <= slack,
    and slack = rate - r_th its slack at x_bar (mu / lambda at an ad1 point).
    """
    f = P_star.sum(axis=1) + prob.cfg.p_rf
    a = -rate_mod.grad_rate_wrt_switch(P_star, x_bar, prob)
    slack = rate_mod.sum_rate(P_star, x_bar, prob) - prob.r_th
    return f, a, slack


def build_ad2_subproblem(
    prob: EsrProblem,
    P_star: np.ndarray,
    x_bar: np.ndarray,
    lambda_bar: float,
):
    """Convex QP model of the switch subproblem around (x_bar, lambda_bar).

    Cost is linear in x (per-antenna transmit total plus standby draw); the
    rate constraint is linearized at x_bar; the curvature matrix is the
    constraint Hessian weighted by the rate multiplier, eigenvalue-shifted to
    HESSIAN_SHIFT_FLOOR.  Returns the QP, whose objective equals the
    quadratic Lagrangian model up to a constant.  At an ad1 point the rate
    exceeds r_th by the slack mu / lambda > 0, so x_bar itself meets the
    linearized constraint and the QP is feasible over the box.
    """
    f_lin, a, slack = _linear_model(prob, P_star, x_bar)

    h_rate = rate_mod.hess_rate_wrt_switch(P_star, x_bar, prob)
    Q0 = -lambda_bar * h_rate
    Q0 = 0.5 * (Q0 + Q0.T)
    min_eig = _least_eigenvalue(Q0)
    tau = max(0.0, HESSIAN_SHIFT_FLOOR - min_eig)
    Q = Q0 + tau * np.eye(prob.n_tx)

    return QpProblem(
        Q=Q,
        g=f_lin - Q @ x_bar,
        A=a[None, :],
        u=np.array([float(a @ x_bar + slack)]),
    )


def bit_rows(bits: np.ndarray, n: int) -> np.ndarray:
    """One Boolean row per integer of bits: column i holds bit i."""
    return ((bits[:, None] >> np.arange(n)) & 1).astype(bool)


def cheapest_selection(prob: EsrProblem, X: np.ndarray, bounds: np.ndarray, incumbent: float = math.inf):
    """Cheapest 0/1 row of X that beats the incumbent objective, by bound.

    bounds is rate.selection_bounds(X, prob)[1], a lower bound on each row's
    objective that is inf where the row is infeasible; such rows are never
    visited.  Rows are visited in ascending (bound, row) order and the power
    subproblem (ad1) is solved for each until a bound exceeds the best
    objective so far, which starts at incumbent: no later row can beat it.
    Ties go to the earlier row, and the incumbent wins its ties, so the
    result is the one an exhaustive search over X in row order would return
    against the incumbent.  ad1's objective sits about mu = nlp.MU_MIN
    above its bound (the cost of its rate slack), far above rounding error.
    Returns (objective, x, P) with x the row as float64, or None when no
    row's power subproblem is feasible and cheaper than incumbent.
    """
    best, best_key = None, (incumbent, -1)
    for i in np.argsort(bounds, kind="stable"):
        if bounds[i] == math.inf or bounds[i] > best_key[0]:
            break
        x = X[i].astype(float)
        try:
            P, _ = ad1(prob, x)
        except Ad1InfeasibleError:
            continue
        objective = rate_mod.economic_objective(P, x, prob)
        if (objective, i) < best_key:
            best, best_key = (objective, x, P), (objective, i)
    return best


def _complete_boolean(prob: EsrProblem, x: np.ndarray):
    """Cheapest Boolean completion of the fractional coordinates of x.

    The linearized rate constraint can pin a few coordinates at fractional
    values no penalty weight can move.  The true constraint decides instead:
    cheapest_selection searches the completions of the pinned coordinates,
    and the cheapest feasible one is returned (None when all completions
    are infeasible or too many coordinates are fractional).
    """
    frac = np.flatnonzero(np.minimum(x, 1.0 - x) > rate_mod.BOOLEAN_TOL)
    if frac.size == 0 or frac.size > 8:
        return None
    cands = np.tile(np.round(x), (2 ** frac.size, 1))
    cands[:, frac] = bit_rows(np.arange(2 ** frac.size), frac.size)
    best = cheapest_selection(prob, cands, rate_mod.selection_bounds(cands, prob)[1])
    return None if best is None else best[1]


def _step_bound(f: np.ndarray, a: np.ndarray, slack: float, on: np.ndarray) -> float:
    """Bound on ||d||_1 for the minimizer d = x - x_bar of AD2's QP at a
    Boolean x_bar with on switches `on`; inf when no multiplier certifies one.

    In d the QP reads min 0.5 d'Qd + f'd over the box, d >= 0 where x_bar is
    0 and d <= 0 where it is 1, subject to a'd <= slack.  For nu >= 0 with
    r = f + nu a positive on every off switch and negative on every on one,
    every feasible d has 0.5 d'Qd + f'd >= r'd - nu slack >= rho(nu) ||d||_1
    - nu slack, rho(nu) = min |r_i|, since Q is positive definite after
    build_ad2_subproblem's shift.  The minimizer does no worse than d = 0,
    so ||d||_1 <= nu slack / rho(nu) (the active-set optimality conditions
    with strict complementarity, Nocedal & Wright, Numerical Optimization,
    sec. 16.5).  The admissible nu lie in (max over on of f_i / -a_i, min
    over off with a_i < 0 of f_i / -a_i).  With t = 1/nu the bound is
    slack / h(t), where h(t) = rho(nu) / nu is the least of the lines
    a_i + f_i t (off) and -(a_i + f_i t) (on): a concave function that
    peaks at t = 0 (nu -> inf) or where an on line crosses an off line, so
    those are the only nu tried; no nu certifies when the peak is not
    positive (an on switch with a_i >= 0, say).
    """
    if not ((f > 0.0).all() and slack >= 0.0):
        return math.inf
    sign = np.where(on, -1.0, 1.0)
    crossings = -(a[on, None] + a[~on]) / (f[on, None] + f[~on])
    t = np.concatenate(([0.0], np.maximum(crossings.ravel(), 0.0)))
    h = (sign * (a + f * t[:, None])).min(axis=1).max()
    return slack / h if h > 0.0 else math.inf


def _returns_start(prob: EsrProblem, P_star: np.ndarray, x_bar: np.ndarray) -> bool:
    """True when x_bar is Boolean and _step_bound proves that AD2's QP at
    (P_star, x_bar) has its minimizer within SNAP_REACH / 2 of x_bar, so
    that solve_bqp would snap it back to x_bar."""
    on = x_bar == 1.0
    if not (on | (x_bar == 0.0)).all():
        return False
    return _step_bound(*_linear_model(prob, P_star, x_bar), on) <= 0.5 * SNAP_REACH


def _sbqp_ad2(prob, P_star, x_bar, lambda_bar) -> Ad2Result:
    """AD2 of AD-SBQP: solve_bqp on build_ad2_subproblem's QP, from x_bar.

    x_bar meets the QP's linearized rate row with slack mu / lambda, so it
    is the global search's start for qp.solve_qp's active set.

    At a Boolean x_bar whose QP minimizer _step_bound places within half of
    bqp.SNAP_REACH of it (in the 1-norm), the QP is not built: solve_bqp
    would snap its global minimizer onto x_bar and return it with status
    "success" and no homotopy round, and so does this step.  The half
    leaves room for the QP solver's own error.  A solve_bqp result that is
    neither "success" nor "qp_failed" (a stalled homotopy or QP) is
    completed to its cheapest Boolean neighbour (_complete_boolean); a QP
    solve that raised leaves x_bar as it is, with the status "qp_failed".
    """
    if _returns_start(prob, P_star, x_bar):
        return Ad2Result(x_bar.copy(), "success", [])
    res = solve_bqp(build_ad2_subproblem(prob, P_star, x_bar, lambda_bar), x_bar)
    if res.x_star is None:
        return Ad2Result(x_bar.copy(), res.status, res.trace)
    if res.status not in ("success", "qp_failed"):
        completed = _complete_boolean(prob, res.x_star)
        if completed is not None:
            return Ad2Result(completed, "success", res.trace)
    return res


def _initial_switch(prob: EsrProblem):
    """Uniform fractional start 0.5*1, scaled up just enough that ad1 can
    serve it: (x, ad1(prob, x)).  (all-on, None) when ad1 can serve no
    fractional scale; _ad_loop has proven all-on feasible."""
    n = prob.n_tx
    for s in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.9999):
        x = np.full(n, s)
        try:
            return x, ad1(prob, x)
        except Ad1InfeasibleError:
            pass
    return np.ones(n), None


def solve(prob: EsrProblem):
    """Full alternating-direction solve; returns (Solution, rows), the
    alternation's AdIterate rows.

    The all-on selection is the incumbent's one candidate row: when the
    alternation ends on another selection, cheapest_selection searches that
    row against the alternation's objective (+inf when it ended
    "infeasible_selection", its last AD2 at switches AD1 cannot serve), and
    all-on is returned only when it is strictly cheaper, so the reported
    objective never exceeds the all-on one.  Its power subproblem is solved
    only when the all-on water-filling bound does not exceed that objective.
    """
    sol, rows = _ad_loop(prob, _sbqp_ad2)
    # The incumbent is the alternation's own result when that ended at all-on;
    # an infeasible_selection exit ended past its pair, which may be all-on.
    ended_at_all_on = sol.status != "infeasible_selection" and (sol.x_star == 1.0).all()
    if sol.status != "infeasible" and not ended_at_all_on:
        objective = math.inf if sol.status == "infeasible_selection" else sol.objective
        ones = np.ones((1, prob.n_tx))
        best = cheapest_selection(prob, ones, rate_mod.selection_bounds(ones, prob)[1], objective)
        if best is not None:
            sol = _solution(prob, best[2], best[1], "success", sol.iterations)
    return sol, rows


def _solution(prob: EsrProblem, P: np.ndarray, x: np.ndarray, status: str, iterations: int) -> Solution:
    """Solution at (P, x) with its objective, complementarity and residuals."""
    return Solution(
        P_star=P,
        x_star=x,
        objective=rate_mod.economic_objective(P, x, prob),
        complementarity=penalty_phi(x),
        rate_residual=rate_mod.sum_rate(P, x, prob) - prob.r_th,
        row_cap_residual=float(np.max(P.sum(axis=1) - prob.cfg.p_th, initial=-np.inf)),
        status=status,
        iterations=iterations,
    )


def _ad_loop(prob: EsrProblem, ad2_fn: Callable[[EsrProblem, np.ndarray, np.ndarray, float], Ad2Result]):
    """The alternation from _initial_switch; returns (Solution, rows), rows
    the list of AdIterate, one per AD2.

    Pass k solves AD1 at x_k for P_k, then AD2 from (P_k, x_k) for x_{k+1};
    the first pass takes the AD1 point the start's scan already solved.
    Every exit returns (P_k, x_k), the pair the last AD1 computed.  Right
    after AD1 the loop stops as converged when hypot(||P_k - P_{k-1}||,
    ||x_k - x_{k-1}||) <= EPS_TERM, or as max_iter after MAX_AD_ITER AD2
    steps; after AD2 as converged on a repeat, x_{k+1} == x_k bit for bit.
    A converged solve has the last AD2's status.  An x_{k+1} that AD1 cannot
    serve ends it infeasible_selection, that step the last row.  iterations
    counts the passes, each begun by AD1.
    """
    rows: list[AdIterate] = []
    n, k = prob.n_tx, prob.n_users
    if not prob.feasible_at_full_activation:
        return Solution(
            P_star=np.zeros((n, k)),
            x_star=np.zeros(n),
            objective=np.nan,
            complementarity=np.nan,
            rate_residual=prob.full_capacity - prob.r_th,
            row_cap_residual=0.0,
            status="infeasible",
            iterations=0,
        ), rows

    t0 = time.perf_counter()  # the first pass's AD1 time includes the scan
    x, start_power = _initial_switch(prob)
    x_bar = x
    P_bar = np.zeros((n, k))
    dx = math.inf  # the last AD2's step; no AD1 point precedes the first
    it = 0
    while True:
        it += 1
        try:
            P_star, lambda_bar = start_power or ad1(prob, x)
        except Ad1InfeasibleError:
            status = "infeasible_selection"
            break
        t1 = time.perf_counter()
        dp = float(np.linalg.norm(P_star - P_bar))
        P_bar, x_bar = P_star, x
        if float(np.hypot(dp, dx)) <= EPS_TERM:
            status = "converged"
            break
        if len(rows) == MAX_AD_ITER:
            status = "max_iter"
            break
        ad2_res = ad2_fn(prob, P_bar, x_bar, lambda_bar)
        t2 = time.perf_counter()
        x = ad2_res.x_star
        dx = float(np.linalg.norm(x - x_bar))
        rows.append(
            AdIterate(
                index=it,
                objective=rate_mod.economic_objective(P_bar, x, prob),
                complementarity=penalty_phi(x),
                rate_residual=rate_mod.sum_rate(P_bar, x, prob) - prob.r_th,
                dp_norm=dp,
                dx_norm=dx,
                lambda_bar=lambda_bar,
                ad1_time=t1 - t0,
                ad2_time=t2 - t1,
                ad2_status=ad2_res.status,
                ad2_trace=ad2_res.trace,
            )
        )
        if np.array_equal(x, x_bar):  # a repeat: the next iteration is a copy
            status = "converged"
            break
        start_power, t0 = None, time.perf_counter()

    # An AD2 "success" is Boolean to 2 * bqp.EPS_COMP: a snapped or
    # certified start, a completion, or phi(x) <= EPS_COMP on [0, 1]^n.
    if status == "converged":
        status = "success" if rows[-1].ad2_status == "success" else "complementarity_not_met"

    return _solution(prob, P_bar, x_bar, status, it), rows
