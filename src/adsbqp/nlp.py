"""Log-barrier interior-point solver for smooth inequality-constrained NLPs.

Problem form: min f(z)  s.t.  c(z) <= 0 (m >= 1 general constraints), lo <= z <= up.
The barrier subproblems are minimized by Newton's method with Armijo
backtracking; an eigenvalue shift keeps the Newton system positive definite
so descent also holds for nonconvex penalized instances.  The barrier weight
mu starts at solve_barrier's mu0 argument (MU0 by default) and shrinks
MU_FACTOR-fold per stage down to MU_MIN = TOL / 10, each stage taking at
most MAX_NEWTON_PER_MU Newton steps; all but mu0 are constants.  A caller
that continues a solve it has already driven to MU_MIN, as each penalty
round after an AD2's first does, passes mu0 = MU_MIN and runs one stage.
Each point is evaluated once: a line-search trial computes the objective,
the log sums and the constraint slack, and the accepted trial carries them
into the next step.  No step does masked work on the bounds, so a step
costs few Python-level calls and gives the same bytes as the plain loop.
The Newton system goes to LAPACK's Cholesky routines (potrf/potrs)
directly, behind the finiteness checks scipy.linalg.cho_factor/cho_solve
would make, and the least eigenvalue of a shift to syevr as
scipy.linalg.eigvalsh calls it.  qp holds these routines for both its
interior point and this solver, and loads them from scipy on first use:
the shifted Newton matrix is positive definite by as little as
HESSIAN_EIG_FLOOR, and numpy's LU (np.linalg.solve) reports such matrices
singular where potrf factors them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable
import numpy as np

from .qp import _cho_factor, _cho_solve, _least_eigenvalue

__all__ = [
    "NlpProblem",
    "NlpSolution",
    "InfeasibleProblemError",
    "find_strictly_feasible",
    "solve_barrier",
]

HESSIAN_EIG_FLOOR = 1e-8
MIN_STEP = 1e-14
ARMIJO_C1 = 1e-4
# Stationarity tolerance of a barrier stage: its gradient is within
# max(mu, TOL).
TOL = 1e-8
# Barrier schedule: mu = MU0 / MU_FACTOR**k for k = 0, 1, ..., floored at
# MU_MIN and ending there, at most MAX_NEWTON_PER_MU Newton steps per value.
# driver.ad1 keeps the rate slack MU_MIN / lambda that such a solve ends with.
MU0 = 1.0
MU_FACTOR = 10.0
MU_MIN = TOL * 0.1
MAX_NEWTON_PER_MU = 200


class InfeasibleProblemError(RuntimeError):
    """No strictly feasible point was found; carries the worst constraint."""

    def __init__(self, message: str, constraint_index: int | None = None, violation: float | None = None):
        super().__init__(message)
        self.constraint_index = constraint_index
        self.violation = violation


@dataclass
class NlpProblem:
    """Callback bundle for one NLP instance.

    Every problem has m >= 1 constraints; m < 1 raises ValueError.
    constraints_hess(z, w) must return sum_i w_i * hess(c_i)(z); it may be
    None when all constraints are affine.  finite_lower and finite_upper
    select the finite bounds, once per problem: a full slice when all are
    finite, so the common all-finite box indexes without a copy.
    """

    n: int
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    lower: np.ndarray
    upper: np.ndarray
    m: int
    constraints: Callable[[np.ndarray], np.ndarray]
    constraints_jac: Callable[[np.ndarray], np.ndarray]
    constraints_hess: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    finite_lower: np.ndarray | slice = field(init=False, repr=False, compare=False)
    finite_upper: np.ndarray | slice = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.lower = np.broadcast_to(np.asarray(self.lower, dtype=float), (self.n,)).copy()
        self.upper = np.broadcast_to(np.asarray(self.upper, dtype=float), (self.n,)).copy()
        lo, up = np.isfinite(self.lower), np.isfinite(self.upper)
        self.finite_lower = slice(None) if lo.all() else lo
        self.finite_upper = slice(None) if up.all() else up
        if self.m < 1:
            raise ValueError(f"an NLP needs m >= 1 constraints, got m = {self.m}")

    def cons(self, z: np.ndarray) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.constraints(z), dtype=float))


@dataclass
class NlpSolution:
    z_star: np.ndarray
    duals: np.ndarray
    status: str  # "optimal" | "stalled" | "max_iter"
    iterations: int
    mu_final: float
    kkt_residual: float


def _interior_midpoint(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The box midpoint where both bounds are finite, 1 inside the one finite
    bound elsewhere, and 0 where neither is finite."""
    lo, up = np.isfinite(lower), np.isfinite(upper)
    z = np.where(lo, lower + 1.0, 0.0)
    z = np.where(up, upper - 1.0, z)
    both = lo & up
    z[both] = 0.5 * (lower[both] + upper[both])
    return z


def find_strictly_feasible(prob: NlpProblem, z0: np.ndarray | None = None) -> np.ndarray:
    """Return a strictly feasible point, or raise InfeasibleProblemError.

    A supplied z0 is used when it is already strictly feasible.  Otherwise a
    phase-1 slack minimization (min s s.t. c_i(z) - s <= 0) runs from the box
    midpoint, which is strictly feasible for the augmented problem by
    construction; the point it ends at is returned when _evaluate finds it
    strictly feasible, whatever its slack s.
    """
    if z0 is not None:
        z0 = np.asarray(z0, dtype=float)
        if _evaluate(prob, z0) is not None:
            return z0
    mid = _interior_midpoint(prob.lower, prob.upper)
    if _evaluate(prob, mid) is not None:
        return mid

    n = prob.n

    def aug_obj(y):
        return float(y[n])

    def aug_grad(y):
        g = np.zeros(n + 1)
        g[n] = 1.0
        return g

    def aug_hess(y):
        return np.zeros((n + 1, n + 1))

    def aug_cons(y):
        return prob.cons(y[:n]) - y[n]

    def aug_jac(y):
        J = np.zeros((prob.m, n + 1))
        J[:, :n] = np.asarray(prob.constraints_jac(y[:n]), dtype=float).reshape(prob.m, n)
        J[:, n] = -1.0
        return J

    def aug_chess(y, w):
        H = np.zeros((n + 1, n + 1))
        if prob.constraints_hess is not None:
            H[:n, :n] = prob.constraints_hess(y[:n], w)
        return H

    s0 = float(np.max(prob.cons(mid))) + 1.0
    aug = NlpProblem(
        n=n + 1,
        objective=aug_obj,
        gradient=aug_grad,
        hessian=aug_hess,
        lower=np.concatenate((prob.lower, [-np.inf])),
        upper=np.concatenate((prob.upper, [np.inf])),
        m=prob.m,
        constraints=aug_cons,
        constraints_jac=aug_jac,
        constraints_hess=aug_chess,
    )
    sol = solve_barrier(aug, z0=np.concatenate((mid, [s0])))
    z = sol.z_star[:n]
    if _evaluate(prob, z) is not None:
        return z
    values = prob.cons(z)
    worst = int(np.argmax(values))
    raise InfeasibleProblemError(
        f"no strictly feasible point: constraint {worst} violated by {values[worst]:.3e}",
        constraint_index=worst,
        violation=float(values[worst]),
    )


def _evaluate(prob: NlpProblem, z: np.ndarray):
    """The barrier pieces at z that do not depend on mu, or None when z is
    outside the open feasible region.

    Returns (sums, lo_gap, up_gap, slack): sums holds sum(log(gap)) over the
    finite lower gaps, over the finite upper gaps and over the constraint
    slacks, in the order _barrier_value weights them.  An empty group sums
    to 0.0, which leaves the barrier value unchanged.  A gap to
    an infinite bound is +inf at a finite z, so the least gap decides the
    box test whatever the bounds (and n = 0 has no box).
    """
    lo_gap = z - prob.lower
    up_gap = prob.upper - z
    if prob.n and (lo_gap.min() <= 0.0 or up_gap.min() <= 0.0):
        return None
    sums = [float(np.log(lo_gap[prob.finite_lower]).sum()),
            float(np.log(up_gap[prob.finite_upper]).sum())]
    slack = -prob.cons(z)
    if slack.min() <= 0.0:
        return None
    sums.append(float(np.log(slack).sum()))
    return sums, lo_gap, up_gap, slack


def _barrier_value(f: float, sums: list, mu: float) -> float:
    """Barrier objective f - mu * (each log sum), subtracted in _evaluate's order."""
    value = 0.0
    for s in sums:
        value -= mu * s
    return f + value


@functools.lru_cache
def _identity(n: int) -> np.ndarray:
    """The n x n identity, built once per order and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _shift_to_pd(H: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of H + tau*I, tau chosen so that the least
    eigenvalue is at least HESSIAN_EIG_FLOOR."""
    eye = _identity(H.shape[0])
    c = _cho_factor(H + HESSIAN_EIG_FLOOR * eye)
    if c is not None:
        return c
    min_eig = _least_eigenvalue(H)
    # Start from the exact shift; grow geometrically when rounding at the
    # scale of ||H|| still leaves the factorization indefinite.
    tau = max(HESSIAN_EIG_FLOOR - min_eig, HESSIAN_EIG_FLOOR)
    for _ in range(60):
        c = _cho_factor(H + tau * eye)
        if c is not None:
            return c
        tau = 10.0 * tau + HESSIAN_EIG_FLOOR
    raise np.linalg.LinAlgError("could not regularize the Newton system")


def _newton_step(H: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve (H + tau*I) step = -grad by _shift_to_pd's factor."""
    return _cho_solve(_shift_to_pd(H), -grad)


def solve_barrier(prob: NlpProblem, z0: np.ndarray | None = None, mu0: float = MU0) -> NlpSolution:
    """Outer barrier loop from mu = mu0 down to MU_MIN, inner damped Newton.

    Stage k runs at mu = max(mu0 / MU_FACTOR**k, MU_MIN), computed from k so
    that no rounding error accumulates into an extra stage; mu0 = MU0 gives
    the full schedule, and mu0 <= MU_MIN a single stage at MU_MIN.  A stage
    that does not converge within MAX_NEWTON_PER_MU Newton steps ends the
    solve as "max_iter".  No point is evaluated twice: a line-search trial
    computes only the objective value, the log sums and the constraint
    slack, which the solve keeps by the point's bytes (a step can round back
    to z, and a later step can retry a rejected trial), and the accepted
    trial's objective value, log sums and slack carry over to the next
    Newton step (and, with the gradient and constraint Jacobian there, to
    the next mu stage); the barrier gradient and Hessian diagonal are built
    once per step, at the accepted point, from the gaps as they are (a gap
    to an infinite bound is +inf and adds 0.0), with no masked update.  The
    Newton system is factored and solved by LAPACK's potrf/potrs directly,
    its shift built on an identity made once per order.  Duals are recovered
    as mu/slack at the final iterate, and the KKT residual there reuses the
    slack and derivatives the loop holds; the accepted inner steps are
    monotone in the barrier objective by the Armijo rule.  iterations counts
    the Newton steps.
    """
    here = None  # _evaluate(prob, z)
    if z0 is not None:
        z = np.array(z0, dtype=float)
        here = _evaluate(prob, z)
    if here is None:
        z = np.array(find_strictly_feasible(prob, z0), dtype=float)
        here = _evaluate(prob, z)
        if here is None:
            raise RuntimeError("barrier iterate left the feasible interior")
    f = prob.objective(z)
    # Every point evaluated so far, by its bytes: (_evaluate there, objective).
    evaluated = {z.tobytes(): (here, f)}
    stage = 0
    mu = max(mu0, MU_MIN)
    total_iters = 0
    status = "optimal"
    derivatives = None  # objective gradient and constraint Jacobian at z

    while True:
        converged_inner = False
        for _ in range(MAX_NEWTON_PER_MU):
            if derivatives is None:
                derivatives = _derivatives(prob, z)
            fgrad, J = derivatives
            sums, lo_gap, up_gap, slack = here
            # The box barrier's gradient: a gap to an infinite bound is +inf
            # and adds exactly 0.0, and (0 - a) + b == b - a, so no masked
            # update onto zeros is needed for the same bits; likewise for
            # the Hessian diagonal below.
            weights = mu / slack
            grad = fgrad + (mu / up_gap - mu / lo_gap) + J.T @ weights
            if np.abs(grad).max() <= max(mu, TOL):
                converged_inner = True
                break
            H = prob.hessian(z) + np.diag(mu / lo_gap ** 2 + mu / up_gap ** 2)
            H = H + (J.T * (mu / slack ** 2)) @ J
            if prob.constraints_hess is not None:
                H = H + prob.constraints_hess(z, weights)
            step = _newton_step(0.5 * (H + H.T), grad)
            base = _barrier_value(f, sums, mu)
            slope = float(grad @ step)
            alpha = 1.0
            accepted = False
            while alpha >= MIN_STEP:
                trial = z + alpha * step
                key = trial.tobytes()
                if key not in evaluated:
                    point = _evaluate(prob, trial)
                    evaluated[key] = point, None if point is None else prob.objective(trial)
                point, f_trial = evaluated[key]
                armijo = base + ARMIJO_C1 * alpha * slope
                if point is not None and _barrier_value(f_trial, point[0], mu) <= armijo:
                    if point is not here:  # else the trial rounded to z
                        derivatives = None
                    z, f, here = trial, f_trial, point
                    accepted = True
                    break
                alpha *= 0.5
            total_iters += 1
            if not accepted:
                status = "stalled"
                break
            if alpha * float(np.abs(step).max()) <= 1e-15 * (1.0 + float(np.abs(z).max())):
                # The update is below representable resolution; further Newton
                # iterations cannot move the iterate.
                converged_inner = True
                break
        if status == "stalled":
            break
        if not converged_inner:
            status = "max_iter"
            break
        if mu <= MU_MIN:
            break
        stage += 1
        mu = max(mu0 / MU_FACTOR ** stage, MU_MIN)

    duals = mu / np.maximum(here[3], np.finfo(float).tiny)
    if derivatives is None:
        derivatives = _derivatives(prob, z)
    kkt = _kkt_residual(prob, z, here[3], derivatives, duals, mu)
    return NlpSolution(z, duals, status, total_iters, mu, kkt)


def _derivatives(prob: NlpProblem, z: np.ndarray):
    """Objective gradient and constraint Jacobian at z."""
    J = np.asarray(prob.constraints_jac(z), dtype=float).reshape(prob.m, prob.n)
    return prob.gradient(z), J


def _kkt_residual(prob: NlpProblem, z: np.ndarray, slack: np.ndarray, derivatives: tuple,
                  duals: np.ndarray, mu: float) -> float:
    """Stationarity of the original problem with barrier-recovered bound duals.

    slack is -c(z) and derivatives is _derivatives(prob, z), both as the
    solve already holds them at z.
    """
    grad, J = derivatives
    grad = grad + J.T @ duals
    lo_fin = np.isfinite(prob.lower)
    up_fin = np.isfinite(prob.upper)
    nu_lo = np.where(lo_fin, mu / np.maximum(z - prob.lower, np.finfo(float).tiny), 0.0)
    nu_up = np.where(up_fin, mu / np.maximum(prob.upper - z, np.finfo(float).tiny), 0.0)
    res = float(np.max(np.abs(grad - nu_lo + nu_up), initial=0.0))
    return max(res, float(np.max(-slack, initial=0.0)))
