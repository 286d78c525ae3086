"""Comparison methods sharing the alternating-direction loop.

AD-SPen keeps the quadratic switch model but adds the exact (indefinite)
quadratic penalty; AD-NSPen keeps the full nonlinear switch problem and adds
the penalty to its objective.  Both run bqp.penalty_homotopy, the rho
schedule of the Boolean-QP method, with a log-barrier NLP solve per round;
they differ only in the objective and the constraint they hand to it.  The
exhaustive enumeration oracle provides ground truth at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import rate as rate_mod
from .bqp import Ad2Result, penalty_grad, penalty_homotopy, penalty_phi
from .driver import _ad_loop, bit_rows, build_ad2_subproblem, cheapest_selection
# ad1 is unused here but stays importable as baselines.ad1, a call site
# that perfbench's tracer tests wrap.
from .driver import ad1  # noqa: F401
from .nlp import MU0, InfeasibleProblemError, NlpProblem, find_strictly_feasible, solve_barrier
from .rate import EsrProblem

__all__ = [
    "MethodReport",
    "solve_ad_spen",
    "solve_ad_nspen",
    "enumerate_selections",
    "EnumerationRefused",
]

METHOD_NAMES = ("AD-SBQP", "AD-SPen", "AD-NSPen", "ENUM")
# Selections bounded per batch in enumerate_selections.
_BLOCK = 4096
# Most antennas enumerate_selections takes, whatever its n_limit: its masks,
# feasible rows and bounds hold about 2^N * (N + 16) bytes, 0.67 GB at 24.
ENUM_CEILING = 24


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
    callbacks of NlpProblem.  Each round starts its barrier solve at the last
    iterate x_hat as it is: every barrier iterate is strictly feasible, so
    phase 1 of find_strictly_feasible, from the box midpoint, runs only when
    the first round's x_bar is not (on the box boundary, such as the all-on
    fallback of driver._initial_switch, or outside the constraint).  Only
    the first round of each AD2 runs the full barrier schedule from MU0;
    every later round is one step of a continuation in rho and resumes at
    the weight the last round ended at, its mu_final (MU_MIN), so it does
    not walk x_hat, which sits next to a bound or the constraint, back to
    the centre of the mu = MU0 stage and down again.  A round
    that finds no strictly feasible start ends the homotopy as "stalled"; a
    barrier solve that ends "stalled" or "max_iter" ends it with that
    status, and one that raises RuntimeError ends it as "barrier_failed", as
    solve_bqp ends on a QP that is not solved to optimality.
    """
    n = x_bar.size
    eye = np.eye(n)
    mu0 = MU0  # the barrier weight the next round starts at

    def step(rho, x_hat):
        nonlocal mu0
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
            x0 = find_strictly_feasible(nlp, x_hat)
        except InfeasibleProblemError:
            return "stalled"
        try:
            sol = solve_barrier(nlp, z0=x0, mu0=mu0)
        except RuntimeError:
            return "barrier_failed"
        if sol.status != "optimal":
            return sol.status
        mu0 = sol.mu_final
        x = sol.z_star
        return x, f(x) + rho * penalty_phi(x), sol.iterations, "barrier"

    return penalty_homotopy(step, x_bar)


def _spen_ad2(prob, P_star, x_bar, lambda_bar) -> Ad2Result:
    """Quadratic switch model plus the exact quadratic penalty rho*x'(1-x)."""
    qp = build_ad2_subproblem(prob, P_star, x_bar, lambda_bar)
    return _penalized_barrier_ad2(
        x_bar, qp.objective, lambda x: qp.Q @ x + qp.g, lambda x: qp.Q,
        constraints=lambda x: np.array([qp.a @ x - qp.u]), constraints_jac=lambda x: qp.a[None, :])


def _nspen_ad2(prob, P_star, x_bar, lambda_bar) -> Ad2Result:
    """Full nonlinear switch problem with the penalty added to the cost.

    The barrier solve asks for the rate's Jacobian and Hessian at the same
    point, so the rate's common factors (rate._snr_weights) are computed
    once per point and shared."""
    f_lin = P_star.sum(axis=1) + prob.cfg.p_rf
    last = [None, None]  # the last point asked for, and its factors

    def weights(x):
        key = x.tobytes()
        if key != last[0]:
            last[:] = key, rate_mod._snr_weights(P_star, x, prob)
        return last[1]

    return _penalized_barrier_ad2(
        x_bar, lambda x: float(f_lin @ x), lambda x: f_lin, lambda x: 0.0,  # linear cost
        constraints=lambda x: np.array([prob.r_th - rate_mod.sum_rate(P_star, x, prob)]),
        constraints_jac=lambda x: -rate_mod.grad_rate_wrt_switch(P_star, x, prob, weights(x))[None, :],
        constraints_hess=lambda x, w: -w[0] * rate_mod.hess_rate_wrt_switch(P_star, x, prob, weights(x)))


def solve_ad_spen(prob: EsrProblem):
    return _ad_loop(prob, _spen_ad2)


def solve_ad_nspen(prob: EsrProblem):
    return _ad_loop(prob, _nspen_ad2)


class EnumerationRefused(ValueError):
    """The instance has more antennas than enumerate_selections takes."""


def enumerate_selections(prob: EsrProblem, n_limit: int = 16):
    """Ground truth: the cheapest of every Boolean switch vector, by branch and bound.

    Pass 1 decides every selection (bitmask) with the exact water-filling
    test and bounds its objective below by the least total power plus the
    standby draw (rate.selection_bounds), in blocks of _BLOCK masks so the
    work arrays do not grow with 2^N; the feasible rows are kept as
    Booleans.  Pass 2 hands them, in ascending mask order, to
    driver.cheapest_selection, which solves the power subproblem in
    ascending bound and stops at the first bound above the cheapest
    objective found, so the result is the exhaustive one with ties broken
    on the smaller bitmask.  The report's iterations count the feasible
    selections; its wall_time is 0.0, for the caller to fill in.  Returns
    (report, x_best, P_best); more than min(n_limit, ENUM_CEILING) antennas
    raise EnumerationRefused before anything is allocated.
    """
    n = prob.n_tx
    limit = min(n_limit, ENUM_CEILING)
    if n > limit:
        raise EnumerationRefused(f"enumeration refused: {n} antennas exceeds the limit of {limit}")
    masks = np.arange(1, 2 ** n)
    X = np.empty((masks.size, n), dtype=bool)
    bounds = np.empty(masks.size)
    count = 0  # feasible rows so far, packed at the front of X and bounds
    for start in range(0, masks.size, _BLOCK):
        rows = bit_rows(masks[start:start + _BLOCK], n)
        feasible, bound = rate_mod.selection_bounds(rows.astype(float), prob)
        end = count + int(feasible.sum())
        X[count:end], bounds[count:end] = rows[feasible], bound[feasible]
        count = end
    best = cheapest_selection(prob, X[:count], bounds[:count])
    if best is None:
        return MethodReport("ENUM", float("nan"), float("nan"), count, 0.0, "infeasible"), None, None
    obj, x_best, P_best = best
    return MethodReport("ENUM", obj, penalty_phi(x_best), count, 0.0, "success"), x_best, P_best
