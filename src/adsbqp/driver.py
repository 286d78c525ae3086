"""Alternating-direction loop: power allocation (AD1) and switch selection (AD2).

AD1 minimizes transmit power at fixed switches over the K per-user received
totals: behind rate.rate_reachable's exact feasibility test it returns the
log-barrier central point in closed form, each total the root of a
quadratic once two nested scalar root finds have fixed the rate and budget
multipliers.  AD2 minimizes a convex quadratic model of the Lagrangian in x
over the linearized rate constraint via the penalty-homotopy Boolean QP.
The loop stops as converged when AD2 returns its start x_bar bit for bit
(AD1 and AD2 are deterministic, so the next iteration could only repeat
this one) or ||[dP | dx]|| drops to EPS_TERM, after AdConfig.max_ad_iter
iterations, or as infeasible_selection at switches AD1 cannot serve.
AdConfig holds the two values a caller sets: the iteration cap and the
complementarity tolerance of AD2; every other tolerance is a module
constant.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable
import numpy as np

from . import rate as rate_mod
from .bqp import EPS_COMP, penalty_phi, solve_bqp
# solve_barrier is unused here but stays importable as driver.solve_barrier,
# a call site that perfbench's tracer tests wrap.
from .nlp import InfeasibleProblemError, solve_barrier  # noqa: F401
from .qp import QpProblem, _least_eigenvalue
from .rate import EsrProblem

__all__ = [
    "AdConfig",
    "AdIterate",
    "AdTrace",
    "Solution",
    "Ad2Result",
    "ad1",
    "build_ad2_subproblem",
    "search_by_bound",
    "solve",
    "full_activation_allocation",
]


# The AD loop converges once ||[dP | dx]|| <= EPS_TERM.
EPS_TERM = 1e-6
# Barrier tolerance: ad1 returns the central point at mu = NLP_TOL / 10,
# where a barrier solve at NLP_TOL ends, and the smooth baselines solve
# their switch NLPs at NLP_TOL.
NLP_TOL = 1e-8
# Least eigenvalue of the AD2 curvature matrix after the shift.
HESSIAN_SHIFT_FLOOR = 1e-8


@dataclass(frozen=True)
class AdConfig:
    max_ad_iter: int = 20
    eps_comp: float = EPS_COMP

    def __post_init__(self) -> None:
        if self.max_ad_iter < 1:
            raise ValueError(f"max_ad_iter must be >= 1, got {self.max_ad_iter}")
        if not self.eps_comp > 0:
            raise ValueError(f"eps_comp must be > 0, got {self.eps_comp}")


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
class AdTrace:
    method: str
    rows: list[AdIterate] = field(default_factory=list)


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


@dataclass
class Ad2Result:
    x_star: np.ndarray
    status: str
    trace: list
    # (P, lambda) = ad1(prob, x_star)[:2] when AD2 already solved it.
    power: tuple[np.ndarray, float] | None = None


class Ad1InfeasibleError(InfeasibleProblemError):
    """The rate threshold is unreachable at the given switch vector."""

    def __init__(self, message: str, achievable_rate: float):
        super().__init__(message)
        self.achievable_rate = achievable_rate


# Root finding in ad1 (_increasing_root): a step grows the guess at most
# _GROW-fold; a solve stops when a Newton step moves the guess by at most
# _ROOT_RTOL relative, well above the rounding noise of the rate, or after
# _MAX_ROOT_STEPS evaluations.
_GROW = 4.0
_LOG_GROW = math.log(_GROW)
_MAX_ROOT_STEPS = 100
_ROOT_RTOL = 1e-13


def _increasing_root(f, z):
    """Root of an increasing f on (0, inf) by safeguarded Newton steps in log z.

    f(z) returns (value, df/dz).  A step multiplies z by at most _GROW.
    Where the Newton step is undefined or leaves the bracket known so far,
    z grows _GROW-fold while no f(z) > 0 has bracketed the root, and the
    bracket is bisected after that.  Returns the first Newton step that
    moves z by at most _ROOT_RTOL relative; after _MAX_ROOT_STEPS
    evaluations, the last z if the root is bracketed and None if it is not.
    """
    lo, hi = 0.0, np.inf
    for _ in range(_MAX_ROOT_STEPS):
        value, slope = f(z)
        if value > 0.0:
            hi = z
        else:
            lo = z
        step = np.nan
        if slope > 0.0:
            step = z * math.exp(min(-value / (z * slope), _LOG_GROW))
            if abs(step - z) <= _ROOT_RTOL * z:
                return step
        if not lo < step < hi:
            step = 0.5 * (lo + hi) if hi < np.inf else _GROW * z
        z = step
    return z if hi < np.inf else None


def ad1(prob: EsrProblem, x_bar: np.ndarray):
    """Optimal power allocation at fixed switches.

    Minimizes sum_ij x_i p_ij subject to the rate threshold, per-antenna row
    caps and P >= 0.  Cost and rate depend on P only through the per-user
    received totals a_j = sum_i x_i p_ij, and the row caps only through the
    budget sum_j a_j <= p_th * sum_i x_i, so the problem lives on the K
    totals.  The returned totals are the central point of the log barrier
    over them at mu = NLP_TOL / 10, where a barrier solve at NLP_TOL ends;
    it keeps the rate slack mu / lambda that the smooth baselines' stall
    depends on.  With g_j the SNR per unit total, c = B / ln2 and eta the
    budget multiplier, stationarity makes each a_j the positive root of

        (1 + eta) g_j a^2 + (1 + eta - mu g_j - lambda c g_j) a - mu = 0,

    and the multipliers solve lambda * (rate - r_th) = mu and
    eta * (budget - sum_j a_j) = mu.  Written as rate - r_th - mu / lambda
    = 0 and budget - sum_j a_j - mu / eta = 0, both are increasing in their
    multiplier, and safeguarded Newton solves them: lambda for each eta,
    inside a solve over eta.  Each active row (x_i above rate.BOOLEAN_TOL)
    then holds a / sum x_i and the others are zero.  The central point exists
    exactly when rate.rate_reachable holds; otherwise, or when a multiplier
    has no root, Ad1InfeasibleError carries the rate at the even split of
    the budget over the users.  Returns (P_star, lambda_bar, evaluations):
    the rate multiplier and the number of evaluations of the totals.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    active = np.flatnonzero(x_bar > rate_mod.BOOLEAN_TOL)
    if active.size == 0:
        raise Ad1InfeasibleError("all antennas are switched off", achievable_rate=0.0)
    x_sum = float(x_bar[active].sum())
    budget = prob.cfg.p_th * x_sum
    g = ((x_bar ** 2) @ prob.gains) / prob.sigma  # SNR per unit received total
    c_rate = prob.bandwidth / rate_mod.LN2
    mu = 0.1 * NLP_TOL
    evaluations = 0

    def rate_of(a):
        return float(c_rate * np.log1p(a * g).sum())

    def central(lam, eta):
        """Totals a at (lam, eta) with da/dlam and da/deta, then the rate gap
        rate - r_th - mu / lam with its partials in lam and eta."""
        nonlocal evaluations
        evaluations += 1
        quad = (1.0 + eta) * g
        lin = 1.0 + eta - (mu + lam * c_rate) * g
        root = np.sqrt(lin * lin + 4.0 * quad * mu)  # = 2 quad a + lin
        # Positive root of quad*a^2 + lin*a - mu, in the form that adds the
        # two positive terms |lin| and root (quad = 0 only where lin > 0).
        s = np.abs(lin) + root
        a = np.divide(s, 2.0 * quad, out=2.0 * mu / s, where=lin <= 0.0)
        da_dlam = c_rate * g * a / root
        da_deta = -a * (1.0 + g * a) / root
        rate_da = c_rate * g / (1.0 + g * a)
        gap = rate_of(a) - prob.r_th - mu / lam
        return a, da_dlam, da_deta, gap, rate_da @ da_dlam + mu / lam ** 2, rate_da @ da_deta

    # lambda / (1 + eta) barely moves with eta, so each solve starts from
    # the last root.  The totals water-fill to lambda c / (1 + eta) - 1 / g_j
    # as mu -> 0, so the first start is a water level above any that fits
    # the budget (users with g_j = 0 take no power).
    lam_scaled = (budget + 1.0 / float(np.min(g, where=g > 0.0, initial=np.inf))) / c_rate

    def lambda_at(eta):
        return _increasing_root(lambda lam: central(lam, eta)[3:5], (1.0 + eta) * lam_scaled)

    def budget_gap(eta):
        nonlocal lam_scaled
        lam = lambda_at(eta)
        if lam is None:
            return np.nan, np.nan
        lam_scaled = lam / (1.0 + eta)
        a, da_dlam, da_deta, _, gap_dlam, gap_deta = central(lam, eta)
        dlam_deta = -gap_deta / gap_dlam
        slope = mu / eta ** 2 - float(np.sum(da_deta + da_dlam * dlam_deta))
        return budget - float(a.sum()) - mu / eta, slope

    reachable = rate_mod.rate_reachable(g, budget, prob.r_th, prob.bandwidth)
    eta = _increasing_root(budget_gap, 2.0 * mu / budget) if reachable else None
    lam = None if eta is None else lambda_at(eta)
    if lam is None:
        raise Ad1InfeasibleError(
            f"rate threshold {prob.r_th:.6g} not met within the power budget {budget:.6g}",
            achievable_rate=rate_of(np.full(prob.n_users, budget / prob.n_users)),
        )
    P_star = np.zeros((prob.n_tx, prob.n_users))
    P_star[active] = central(lam, eta)[0] / x_sum
    return P_star, lam, evaluations


def full_activation_allocation(prob: EsrProblem):
    """Reference allocation with every antenna on; returns (P, objective)."""
    ones = np.ones(prob.n_tx)
    P, _, _ = ad1(prob, ones)
    return P, rate_mod.economic_objective(P, ones, prob)


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
    HESSIAN_SHIFT_FLOOR.  Returns (qp, offset) with the QP objective equal
    to the quadratic Lagrangian model minus offset.  At an ad1 point the
    rate exceeds r_th by the slack mu / lambda > 0, so x_bar itself meets
    the linearized constraint and the QP is feasible over the box.
    """
    f_lin = P_star.sum(axis=1) + prob.cfg.p_rf
    c_val = prob.r_th - rate_mod.sum_rate(P_star, x_bar, prob)
    a = -rate_mod.grad_rate_wrt_switch(P_star, x_bar, prob)

    h_rate = rate_mod.hess_rate_wrt_switch(P_star, x_bar, prob)
    Q0 = -lambda_bar * h_rate
    Q0 = 0.5 * (Q0 + Q0.T)
    min_eig = _least_eigenvalue(Q0)
    tau = max(0.0, HESSIAN_SHIFT_FLOOR - min_eig)
    Q = Q0 + tau * np.eye(prob.n_tx)

    g = f_lin - Q @ x_bar
    f_center = rate_mod.economic_objective(P_star, x_bar, prob)
    offset = f_center + 0.5 * float(x_bar @ Q @ x_bar) - float(f_lin @ x_bar)

    qp = QpProblem(
        Q=Q,
        g=g,
        A=a[None, :],
        u=np.array([float(a @ x_bar - c_val)]),
        lower=np.zeros(prob.n_tx),
        upper=np.ones(prob.n_tx),
    )
    return qp, offset


def search_by_bound(prob: EsrProblem, bounds, keys, selection, power):
    """Cheapest feasible selection, visited in ascending water-filling bound.

    bounds[i] is rate.selection_bounds' lower bound on the objective of the
    selection x = selection(keys[i]).  Candidates are visited in ascending
    (bound, key) order and power(prob, x), the power subproblem (ad1), is
    solved for each until a bound exceeds the cheapest objective found: no
    later candidate can beat it.  Ties go to the smaller key, so the result
    is the one an exhaustive search over every candidate would return.
    Returns (objective, key, x, P, lambda), P and lambda the power
    subproblem's solution and rate multiplier at x, or None when every power
    subproblem is infeasible.
    """
    best = None
    for i in np.lexsort((keys, bounds)):
        if best is not None and bounds[i] > best[0]:
            break
        x = selection(keys[i])
        try:
            P, lam, _ = power(prob, x)
        except Ad1InfeasibleError:
            continue
        objective = rate_mod.economic_objective(P, x, prob)
        if best is None or (objective, keys[i]) < best[:2]:
            best = (objective, keys[i], x, P, lam)
    return best


def _complete_boolean(prob: EsrProblem, x: np.ndarray):
    """Cheapest Boolean completion of the fractional coordinates of x.

    The linearized rate constraint can pin a few coordinates at fractional
    values no penalty weight can move.  The true constraint decides instead:
    the completions of the pinned coordinates are searched by the
    water-filling bound, with a full power re-optimization of each one
    that can still win, and the cheapest feasible one is returned with its
    power solution as (x, P, lambda) (None when all completions are
    infeasible or too many coordinates are fractional).
    """
    frac = np.flatnonzero(np.minimum(x, 1.0 - x) > rate_mod.BOOLEAN_TOL)
    if frac.size == 0 or frac.size > 8:
        return None
    bits = np.arange(2 ** frac.size)
    cands = np.tile(np.round(x), (bits.size, 1))
    cands[:, frac] = (bits[:, None] >> np.arange(frac.size)) & 1
    feasible, bounds = rate_mod.selection_bounds(cands, prob)
    best = search_by_bound(prob, bounds[feasible], bits[feasible], lambda i: cands[i], ad1)
    return None if best is None else best[2:]


def _sbqp_ad2(prob, P_star, x_bar, lambda_bar, cfg: AdConfig) -> Ad2Result:
    qp, _ = build_ad2_subproblem(prob, P_star, x_bar, lambda_bar)
    res = solve_bqp(qp, eps_comp=cfg.eps_comp)
    if res.status == "complementarity_not_met":
        completed = _complete_boolean(prob, res.x_star)
        if completed is not None:
            x_star, P, lam = completed
            return Ad2Result(x_star, "success", res.trace, power=(P, lam))
    return Ad2Result(res.x_star, res.status, res.trace)


def _initial_switch(prob: EsrProblem) -> np.ndarray:
    """Uniform fractional start 0.5*1, scaled up just enough to keep the
    power subproblem feasible at the initial switches."""
    n = prob.n_tx
    for s in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.9999):
        x = np.full(n, s)
        g = (x ** 2) @ prob.gains / prob.sigma
        if rate_mod.rate_reachable(g, prob.cfg.p_th * float(x.sum()), prob.r_th, prob.bandwidth):
            return x
    return np.full(n, 0.9999)


def solve(prob: EsrProblem, cfg: AdConfig | None = None):
    """Full alternating-direction solve; returns (Solution, AdTrace).

    The full-activation allocation is kept as an incumbent: when the
    alternation ends on a costlier selection, the all-on solution is
    returned instead, so the reported objective never exceeds that baseline.
    Its power subproblem is solved only when the alternation ended on
    another selection and the all-on water-filling bound
    (rate.selection_bounds) does not exceed the alternation's objective.
    """
    return _ad_loop(prob, cfg or AdConfig(), _sbqp_ad2, "AD-SBQP", full_fallback=True)


def _ad_loop(
    prob: EsrProblem,
    cfg: AdConfig,
    ad2_fn: Callable[..., Ad2Result],
    method: str,
    full_fallback: bool = False,
):
    trace = AdTrace(method=method)
    n, k = prob.n_tx, prob.n_users
    if not prob.feasible_at_full_activation:
        sol = Solution(
            P_star=np.zeros((n, k)),
            x_star=np.zeros(n),
            objective=np.nan,
            complementarity=np.nan,
            rate_residual=prob.full_capacity - prob.r_th,
            row_cap_residual=0.0,
            status="infeasible",
            iterations=0,
        )
        return sol, trace

    x_bar = _initial_switch(prob)
    P_bar = np.zeros((n, k))
    status = "max_iter"
    it = 0
    repeat = False
    power = None  # ad1(prob, x_bar)[:2] when the last AD2 already solved it

    while it < cfg.max_ad_iter:
        it += 1
        t0 = time.perf_counter()
        if power is not None:
            P_star, lambda_bar = power
        else:
            try:
                P_star, lambda_bar, _ = ad1(prob, x_bar)
            except Ad1InfeasibleError:
                status = "infeasible_selection"
                break
        t1 = time.perf_counter()
        ad2_res = ad2_fn(prob, P_star, x_bar, lambda_bar, cfg)
        t2 = time.perf_counter()
        x_star = ad2_res.x_star

        dp = float(np.linalg.norm(P_star - P_bar))
        dx = float(np.linalg.norm(x_star - x_bar))
        trace.rows.append(
            AdIterate(
                index=it,
                objective=rate_mod.economic_objective(P_star, x_star, prob),
                complementarity=penalty_phi(x_star),
                rate_residual=rate_mod.sum_rate(P_star, x_star, prob) - prob.r_th,
                dp_norm=dp,
                dx_norm=dx,
                lambda_bar=lambda_bar,
                ad1_time=t1 - t0,
                ad2_time=t2 - t1,
                ad2_status=ad2_res.status,
                ad2_trace=ad2_res.trace,
            )
        )
        repeat = np.array_equal(x_star, x_bar)  # the next iteration is a copy
        P_bar, x_bar, power = P_star, x_star, ad2_res.power
        if repeat or float(np.hypot(dp, dx)) <= EPS_TERM:
            status = "converged"
            break

    # Final consistency pass: powers re-optimized at the final switches so
    # the reported pair satisfies its own constraints.  After a repeat,
    # P_bar already is ad1(x_bar).
    P_final = P_bar
    if not repeat and status in ("converged", "max_iter"):
        try:
            P_final = power[0] if power is not None else ad1(prob, x_bar)[0]
        except Ad1InfeasibleError:
            status = "infeasible_selection"

    if status == "converged":
        last_ad2 = trace.rows[-1].ad2_status if trace.rows else "success"
        if rate_mod.is_boolean_feasible(x_bar) and last_ad2 == "success":
            status = "success"
        else:
            status = "complementarity_not_met"

    # The incumbent is the alternation's own result when that ended at all-on.
    if (full_fallback and status in ("success", "complementarity_not_met", "max_iter")
            and not (x_bar == 1.0).all()):
        objective = rate_mod.economic_objective(P_final, x_bar, prob)
        # The all-on objective is at least its water-filling bound, so above
        # the bound the incumbent cannot win and its power solve is skipped.
        _, bound = rate_mod.selection_bounds(np.ones((1, n)), prob)
        if bound[0] <= objective:
            try:
                P_ones, obj_ones = full_activation_allocation(prob)
            except Ad1InfeasibleError:
                obj_ones = np.inf
            if obj_ones < objective:
                P_final, x_bar, status = P_ones, np.ones(n), "success"

    comp = penalty_phi(x_bar)
    rate_res = rate_mod.sum_rate(P_final, x_bar, prob) - prob.r_th
    row_res = float(np.max(P_final.sum(axis=1) - prob.cfg.p_th, initial=-np.inf))
    sol = Solution(
        P_star=P_final,
        x_star=x_bar,
        objective=rate_mod.economic_objective(P_final, x_bar, prob),
        complementarity=comp,
        rate_residual=rate_res,
        row_cap_residual=row_res,
        status=status,
        iterations=it,
    )
    return sol, trace
