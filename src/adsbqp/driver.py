"""Alternating-direction loop: power allocation (AD1) and switch selection (AD2).

AD1 minimizes transmit power at fixed switches over the K per-user received
totals, which carry both the cost and the rate: it returns the log-barrier
central point in closed form, each total the root of a quadratic once two
nested scalar root finds have fixed the rate and budget multipliers.  AD2
minimizes a convex quadratic model of the Lagrangian in x over the
linearized rate constraint via the penalty-homotopy Boolean QP.  The loop
terminates when the concatenated update norm ||[dP | dx]|| drops below the
configured tolerance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable
import numpy as np
import scipy.linalg

from . import rate as rate_mod
from .bqp import BqpConfig, BqpIterate, penalty_phi, solve_bqp
# solve_barrier is unused here but stays importable as driver.solve_barrier,
# a call site that perfbench's tracer tests wrap.
from .nlp import InfeasibleProblemError, solve_barrier  # noqa: F401
from .qp import QpProblem
from .rate import EsrProblem

__all__ = [
    "AdConfig",
    "AdIterate",
    "AdTrace",
    "Solution",
    "Ad2Result",
    "ad1",
    "build_ad2_subproblem",
    "solve",
    "full_activation_allocation",
]


@dataclass(frozen=True)
class AdConfig:
    eps_term: float = 1e-6
    max_ad_iter: int = 20
    hessian_shift_floor: float = 1e-8
    bqp: BqpConfig = field(default_factory=BqpConfig)
    nlp_tol: float = 1e-8
    boolean_tol: float = 1e-9
    max_recovery: int = 5

    def __post_init__(self) -> None:
        if not self.eps_term > 0:
            raise ValueError("eps_term must be > 0")
        if self.max_ad_iter < 1:
            raise ValueError("max_ad_iter must be >= 1")


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
    elastic_relaxation: float
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
    complementarity: float
    trace: list
    elastic_relaxation: float = 0.0


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
_START_SCALES = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0 - 1e-6)


def _uniform_start(prob: EsrProblem, x_bar: np.ndarray):
    """Strictly feasible uniform allocation t * p_th / K, or raise.

    Scans t upward and keeps the smallest scale whose rate strictly exceeds
    the threshold, so both the rate slack and the row-cap slack are positive.
    """
    slack_min = 1e-9 * prob.r_th
    best = None
    top_rate = -np.inf
    for t in _START_SCALES:
        P = rate_mod.uniform_power(prob, scale=t)
        achieved = rate_mod.sum_rate(P, x_bar, prob)
        top_rate = max(top_rate, achieved)
        if achieved > prob.r_th + slack_min:
            best = P
            break
    if best is None:
        raise Ad1InfeasibleError(
            f"rate threshold {prob.r_th:.6g} unreachable at this switch vector "
            f"(uniform-cap rate {top_rate:.6g})",
            achievable_rate=top_rate,
        )
    return best


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


def ad1(prob: EsrProblem, x_bar: np.ndarray, cfg: AdConfig | None = None):
    """Optimal power allocation at fixed switches.

    Minimizes sum_ij x_i p_ij subject to the rate threshold, per-antenna row
    caps and P >= 0.  Cost and rate depend on P only through the per-user
    received totals a_j = sum_i x_i p_ij, and the row caps only through the
    budget sum_j a_j <= p_th * sum_i x_i, so the problem lives on the K
    totals.  The returned totals are the central point of the log barrier
    over them at mu = nlp_tol / 10, where a barrier solve at nlp_tol ends;
    it keeps the rate slack mu / lambda that the smooth baselines' stall
    depends on.  With g_j the SNR per unit total, c = B / ln2 and eta the
    budget multiplier, stationarity makes each a_j the positive root of

        (1 + eta) g_j a^2 + (1 + eta - mu g_j - lambda c g_j) a - mu = 0,

    and the multipliers solve lambda * (rate - r_th) = mu and
    eta * (budget - sum_j a_j) = mu.  Written as rate - r_th - mu / lambda
    = 0 and budget - sum_j a_j - mu / eta = 0, both are increasing in their
    multiplier, and safeguarded Newton solves them: lambda for each eta,
    inside a solve over eta.  Each active row (x_i above boolean_tol) then
    holds a / sum x_i and the others are zero.  Feasibility is decided by
    the uniform start scan; a multiplier without a root raises
    Ad1InfeasibleError as well.  Returns (P_star, lambda_bar, evaluations):
    the rate-constraint multiplier and the number of evaluations of the
    totals.
    """
    if cfg is None:
        cfg = AdConfig()
    x_bar = np.asarray(x_bar, dtype=float)
    active = np.flatnonzero(x_bar > cfg.boolean_tol)
    if active.size == 0:
        raise Ad1InfeasibleError("all antennas are switched off", achievable_rate=0.0)
    x_sum = float(x_bar[active].sum())
    budget = prob.cfg.p_th * x_sum
    g = ((x_bar ** 2) @ prob.gains) / prob.sigma  # SNR per unit received total
    c_rate = prob.bandwidth / rate_mod.LN2
    mu = 0.1 * cfg.nlp_tol
    a0 = x_bar[active] @ _uniform_start(prob, x_bar)[active]
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

    eta = _increasing_root(budget_gap, 2.0 * mu / budget)
    lam = None if eta is None else lambda_at(eta)
    if lam is None:
        raise Ad1InfeasibleError(
            f"rate threshold {prob.r_th:.6g} not met within the power budget {budget:.6g}",
            achievable_rate=rate_of(a0),
        )
    P_star = np.zeros((prob.n_tx, prob.n_users))
    P_star[active] = central(lam, eta)[0] / x_sum
    return P_star, lam, evaluations


def full_activation_allocation(prob: EsrProblem, cfg: AdConfig | None = None):
    """Reference allocation with every antenna on; returns (P, objective)."""
    ones = np.ones(prob.n_tx)
    P, _, _ = ad1(prob, ones, cfg)
    return P, rate_mod.economic_objective(P, ones, prob)


def build_ad2_subproblem(
    prob: EsrProblem,
    P_star: np.ndarray,
    x_bar: np.ndarray,
    lambda_bar: float,
    shift_floor: float = 1e-8,
):
    """Convex QP model of the switch subproblem around (x_bar, lambda_bar).

    Cost is linear in x (per-antenna transmit total plus standby draw); the
    rate constraint is linearized at x_bar; the curvature matrix is the
    constraint Hessian weighted by the rate multiplier, eigenvalue-shifted to
    the configured floor.  Returns (qp, offset, relaxation) with the QP
    objective equal to the quadratic Lagrangian model minus offset, and
    relaxation > 0 when the linearized constraint had to be loosened to stay
    feasible over the box.
    """
    f_lin = P_star.sum(axis=1) + prob.cfg.p_rf
    c_val = prob.r_th - rate_mod.sum_rate(P_star, x_bar, prob)
    a = -rate_mod.grad_rate_wrt_switch(P_star, x_bar, prob)
    u0 = float(a @ x_bar - c_val)

    h_rate = rate_mod.hess_rate_wrt_switch(P_star, x_bar, prob)
    Q0 = -lambda_bar * h_rate
    Q0 = 0.5 * (Q0 + Q0.T)
    min_eig = float(scipy.linalg.eigvalsh(Q0, subset_by_index=(0, 0))[0])
    tau = max(0.0, shift_floor - min_eig)
    Q = Q0 + tau * np.eye(prob.n_tx)

    g = f_lin - Q @ x_bar
    f_center = rate_mod.economic_objective(P_star, x_bar, prob)
    offset = f_center + 0.5 * float(x_bar @ Q @ x_bar) - float(f_lin @ x_bar)

    box_min = float(np.minimum(a, 0.0).sum())
    relaxation = 0.0
    u = u0
    if u0 < box_min:
        # Linearization can cut off the whole box far from x_bar; loosen it
        # minimally (elastic relaxation) and report the amount.
        u = box_min + 1e-8 * max(1.0, abs(box_min))
        relaxation = u - u0
    qp = QpProblem(
        Q=Q,
        g=g,
        A=a[None, :],
        u=np.array([u]),
        lower=np.zeros(prob.n_tx),
        upper=np.ones(prob.n_tx),
    )
    return qp, offset, relaxation


def _complete_boolean(prob: EsrProblem, x: np.ndarray, cfg: AdConfig):
    """Cheapest Boolean completion of the fractional coordinates of x.

    The linearized rate constraint can pin a few coordinates at fractional
    values no penalty weight can move.  The true constraint decides instead:
    every completion of the pinned coordinates is checked with a full power
    re-optimization and the cheapest feasible one is returned (None when all
    completions are infeasible or too many coordinates are fractional).
    """
    frac = np.flatnonzero(np.minimum(x, 1.0 - x) > cfg.boolean_tol)
    if frac.size == 0 or frac.size > 8:
        return None
    base = np.round(x)
    best = None
    for bits in range(2 ** frac.size):
        cand = base.copy()
        cand[frac] = [(bits >> i) & 1 for i in range(frac.size)]
        if cand.sum() == 0:
            continue
        try:
            P, _, _ = ad1(prob, cand, cfg)
        except Ad1InfeasibleError:
            continue
        obj = rate_mod.economic_objective(P, cand, prob)
        if best is None or obj < best[0]:
            best = (obj, cand)
    return None if best is None else best[1]


def _sbqp_ad2(prob, P_star, x_bar, lambda_bar, cfg: AdConfig, rho_scale: float) -> Ad2Result:
    qp, _, relaxation = build_ad2_subproblem(
        prob, P_star, x_bar, lambda_bar, cfg.hessian_shift_floor
    )
    bqp_cfg = replace(cfg.bqp, rho0=cfg.bqp.rho0 * rho_scale)
    res = solve_bqp(qp, bqp_cfg)
    x_star, status = res.x_star, res.status
    if status == "complementarity_not_met":
        completed = _complete_boolean(prob, x_star, cfg)
        if completed is not None:
            x_star, status = completed, "success"
    return Ad2Result(x_star, status, penalty_phi(x_star), res.trace, relaxation)


def _initial_switch(prob: EsrProblem, cfg: AdConfig) -> np.ndarray:
    """Uniform fractional start 0.5*1, scaled up just enough to keep the
    power subproblem feasible at the initial switches."""
    n = prob.n_tx
    for s in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.9999):
        x = np.full(n, s)
        try:
            _uniform_start(prob, x)
        except Ad1InfeasibleError:
            continue
        return x
    return np.full(n, 0.9999)


def solve(prob: EsrProblem, cfg: AdConfig | None = None):
    """Full alternating-direction solve; returns (Solution, AdTrace).

    The full-activation allocation is kept as an incumbent: when the
    alternation ends on a costlier selection, the all-on solution is
    returned instead, so the reported objective never exceeds that baseline.
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

    x_bar = _initial_switch(prob, cfg)
    P_bar = _uniform_start(prob, x_bar)
    last_good = None  # (x_bar, P_star, lambda_bar)
    rho_scale = 1.0
    recoveries = 0
    status = "max_iter"
    it = 0

    while it < cfg.max_ad_iter:
        it += 1
        t0 = time.perf_counter()
        try:
            P_star, lambda_bar, _ = ad1(prob, x_bar, cfg)
        except Ad1InfeasibleError:
            if last_good is None or recoveries >= cfg.max_recovery:
                status = "infeasible_selection"
                break
            # Reject the offending switch step: reinstate the last feasible
            # switches and redo the selection with a doubled initial penalty.
            recoveries += 1
            rho_scale *= 2.0
            x_prev, P_prev, lam_prev = last_good
            ad2_retry = ad2_fn(prob, P_prev, x_prev, lam_prev, cfg, rho_scale)
            if np.allclose(ad2_retry.x_star, x_bar):
                status = "infeasible_selection"
                break
            x_bar = ad2_retry.x_star
            continue
        t1 = time.perf_counter()
        last_good = (x_bar.copy(), P_star, lambda_bar)
        ad2_res = ad2_fn(prob, P_star, x_bar, lambda_bar, cfg, rho_scale)
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
                elastic_relaxation=ad2_res.elastic_relaxation,
                ad2_trace=ad2_res.trace,
            )
        )
        residual = float(np.hypot(dp, dx))
        P_bar, x_bar = P_star, x_star
        if residual <= cfg.eps_term:
            status = "converged"
            break

    # Final consistency pass: powers re-optimized at the final switches so
    # the reported pair satisfies its own constraints.
    P_final = P_bar
    if status in ("converged", "max_iter"):
        try:
            P_final, _, _ = ad1(prob, x_bar, cfg)
        except Ad1InfeasibleError:
            status = "infeasible_selection"

    if status == "converged":
        last_ad2 = trace.rows[-1].ad2_status if trace.rows else "success"
        if rate_mod.is_boolean_feasible(x_bar, cfg.boolean_tol) and last_ad2 == "success":
            status = "success"
        else:
            status = "complementarity_not_met"

    if full_fallback and status in ("success", "complementarity_not_met", "max_iter"):
        ones = np.ones(n)
        try:
            P_ones, _, _ = ad1(prob, ones, cfg)
        except Ad1InfeasibleError:
            P_ones = None
        if P_ones is not None:
            obj_ones = rate_mod.economic_objective(P_ones, ones, prob)
            if obj_ones < rate_mod.economic_objective(P_final, x_bar, prob):
                P_final, x_bar, status = P_ones, ones, "success"

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
