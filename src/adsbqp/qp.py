"""Dense convex box QP solver: min 0.5 x'Qx + g'x  s.t.  Ax <= u,  0 <= x <= 1.

Mehrotra's primal-dual predictor-corrector interior point (Mehrotra 1992;
Nocedal & Wright, Numerical Optimization, sec. 16.6) with a 0.995
fraction-to-boundary rule.  All inequalities (general rows plus the box)
are stacked into a single slack system C x + s = d, s >= 0; each
iteration factors the condensed normal matrix Q + C' diag(z/s) C once by a
dense Cholesky and solves with that factor twice, for the affine-scaling
predictor and for the centering corrector; a solve ends as "max_iter" after
MAX_ITER iterations.  A QpProblem is validated and
stacked once, when it is built, and QpProblem.with_g shares all of it but
the linear term.  The Cholesky factor and solve go to LAPACK's potrf/potrs
directly, behind the finiteness checks scipy.linalg.cho_factor/cho_solve
would make; nlp's Newton system uses the same routines, and nlp and driver
take a least eigenvalue from syevr as scipy.linalg.eigvalsh would.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
import numpy as np
import scipy.linalg

__all__ = ["QpProblem", "QpSolution", "solve_qp", "kkt_residual"]

FRACTION_TO_BOUNDARY = 0.995
# Safeguards of the predictor-corrector.  No complementarity product needs to
# fall below tol, and driving products far below it only sends z/s in the
# normal matrix towards 1e16, where the solve loses the dual residual; so the
# centering target never drops below CENTERING_FLOOR * tol.  A step is halved
# until every product s_i z_i is at least NEIGHBORHOOD times their mean (the
# wide neighborhood of long-step path following, Nocedal & Wright sec.
# 14.1): uncentered iterates made Mehrotra's steps cycle with mu stuck
# between 0.01 and 0.3 on QPs with repeated or nearly parallel rows.  A step shorter than
# MIN_STEP cannot reduce the residuals (the iterates of an infeasible QP run
# to the boundary this way), so the loop ends there.
CENTERING_FLOOR = 1e-2
NEIGHBORHOOD = 1e-3
MIN_STEP = 1e-8
# Interior-point iterations before a solve ends as "max_iter".
MAX_ITER = 100

# The double-precision routines scipy.linalg.cho_factor/cho_solve and
# eigvalsh call; on the 16x16 systems of AD-SBQP and the 2-4 variable ones of
# the barrier NLP the wrappers cost more than the LAPACK call.
_POTRF, _POTRS, _SYEVR, _SYEVR_LWORK = scipy.linalg.get_lapack_funcs(
    ("potrf", "potrs", "syevr", "syevr_lwork"), (np.zeros(1),))


def _check_finite(a: np.ndarray) -> None:
    """The check scipy.linalg.cho_factor/cho_solve make before calling LAPACK."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _cho_factor(a: np.ndarray) -> np.ndarray | None:
    """The lower factor cho_factor(a, lower=True) returns, or None where it
    raises LinAlgError (a is not positive definite)."""
    _check_finite(a)
    c, info = _POTRF(a, lower=True, clean=False)
    return c if info == 0 else None


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """cho_solve((c, True), b): solve with the lower factor c of _cho_factor.

    Only b is checked: the factor of a finite positive-definite matrix is
    finite."""
    _check_finite(b)
    x, info = _POTRS(c, b, lower=True)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


@functools.lru_cache
def _syevr_workspace(n: int) -> tuple[int, int]:
    """The workspace sizes eigvalsh queries for syevr at order n."""
    work, iwork, _ = _SYEVR_LWORK(n, lower=1)
    return int(work), int(iwork)


def _least_eigenvalue(a: np.ndarray) -> float:
    """scipy.linalg.eigvalsh(a, subset_by_index=(0, 0))[0]: syevr called as
    eigvalsh calls it (lower triangle, eigenvalue 1 of n, no vectors)."""
    _check_finite(a)
    lwork, liwork = _syevr_workspace(a.shape[0])
    w, _, _, _, info = _SYEVR(a, compute_v=0, range="I", lower=1, il=1, iu=1,
                              lwork=lwork, liwork=liwork)
    if info != 0:
        raise scipy.linalg.LinAlgError(f"syevr failed with info {info}")
    return float(w[0])


@dataclass(frozen=True)
class QpProblem:
    """Dense convex QP data over the box [0, 1]^n, the relaxation of AD2's
    Boolean QP.  Q must be finite and symmetric PSD (up to noise).

    Construction validates the data, stores Q symmetrized and stacks the
    inequalities for solve_qp; solve_qp checks only convexity, by a
    Cholesky factor of Q.
    """

    Q: np.ndarray
    g: np.ndarray
    A: np.ndarray
    u: np.ndarray

    def __post_init__(self) -> None:
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        g = np.atleast_1d(np.asarray(self.g, dtype=float))
        n = g.size
        A = np.asarray(self.A, dtype=float).reshape(-1, n)
        u = np.atleast_1d(np.asarray(self.u, dtype=float)).reshape(-1)
        if Q.shape != (n, n):
            raise ValueError("Q must be n x n")
        if not np.isfinite(Q).all():
            raise ValueError("Q must be finite")
        if np.abs(Q - Q.T).max(initial=0.0) > 1e-12:
            raise ValueError("Q must be symmetric within 1e-12")
        if A.shape[0] != u.size:
            raise ValueError("A and u row counts differ")
        object.__setattr__(self, "Q", 0.5 * (Q + Q.T))
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "_stacked", _stack_constraints(self))

    @property
    def n(self) -> int:
        return self.g.size

    @property
    def m(self) -> int:
        return self.u.size

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.Q @ x + self.g @ x)

    def with_g(self, g: np.ndarray) -> QpProblem:
        """This problem with the linear term g.  Only g is checked; the
        validated Q, A, u and stacked inequalities are shared."""
        g = np.asarray(g, dtype=float)
        if g.shape != self.g.shape:
            raise ValueError("g must have n entries")
        qp = copy.copy(self)
        object.__setattr__(qp, "g", g)
        return qp


@dataclass
class QpSolution:
    x_star: np.ndarray
    duals_ineq: np.ndarray
    duals_lower: np.ndarray
    duals_upper: np.ndarray
    status: str  # "optimal" | "infeasible" | "stalled" | "max_iter"
    iterations: int
    kkt_residual: float


def _check_psd(Q: np.ndarray) -> None:
    """Raise ValueError unless Q, or Q + 1e-12 I at a single retry, has a
    Cholesky factor."""
    if _cho_factor(Q) is None and _cho_factor(Q + 1e-12 * np.eye(Q.shape[0])) is None:
        raise ValueError("Q is not positive semidefinite")


def _stack_constraints(qp: QpProblem):
    """All inequalities as C x <= d: the general rows, then x <= 1, then -x <= -0."""
    eye = np.eye(qp.n)
    C = np.vstack([qp.A, eye, -eye])
    d = np.concatenate([qp.u, np.ones(qp.n), -np.zeros(qp.n)])
    return C, d


def _residual(qp: QpProblem, C: np.ndarray, d: np.ndarray, x: np.ndarray, z: np.ndarray) -> float:
    """Max of |Qx + g + C'z|, of the violations of C x <= d and of
    |z_i (d - C x)_i|: the KKT residual of (x, z)."""
    slack = d - C @ x
    return max(float(np.abs(qp.Q @ x + qp.g + C.T @ z).max()),
               float((-slack).max(initial=0.0)),
               float(np.abs(z * slack).max(initial=0.0)))


def _step_to_boundary(s, ds, z, dz, fraction):
    """min(1, fraction * the largest step keeping s + a*ds and z + a*dz >= 0).

    The ratios ds/s and dz/z need no mask: s and z are positive."""
    t = -min(float((ds / s).min()), float((dz / z).min()))
    return min(1.0, fraction / t) if t > 0.0 else 1.0


def solve_qp(qp: QpProblem, tol: float = 1e-10) -> QpSolution:
    """Solve the QP by an infeasible-start Mehrotra predictor-corrector.

    Each iteration factors the normal matrix once, by LAPACK's potrf, and
    solves with the factor twice (potrs): the predictor is the
    affine-scaling step, whose complementarity after the longest step to
    the boundary, mu_aff, sets sigma = min(1, mu_aff/mu)^3; the corrector
    targets max(sigma*mu, CENTERING_FLOOR*tol) and adds the predictor's
    second-order term ds_aff*dz_aff.  The step goes 0.995 of the way to the
    boundary and is halved until every product s_i z_i stays at least
    NEIGHBORHOOD times their mean.  A normal matrix that is not positive
    definite raises LinAlgError at once.

    Status "optimal" guarantees kkt_residual <= tol: stationarity, the
    violation of every row and bound, and every complementarity product
    z_i * slack_i, each within tol at the returned point.  The loop starts
    at the box center and stops once the residuals of its iterate (each
    s_i z_i, not their mean) are within tol and the iterate, clipped onto
    [0, 1]^n, still has kkt_residual <= tol; the clip makes the bounds
    exact.  A run that ends after MAX_ITER iterations or by a step below
    MIN_STEP ("max_iter", "stalled") is reported "infeasible" when its
    clipped point violates a row by more than max(1e-6, 1e3 * tol).  The
    data were validated when qp was built; Q is factored once here, to
    check convexity.  A non-finite Q, normal matrix or right-hand side
    raises ValueError, as scipy's Cholesky wrappers would.  iterations
    counts the interior-point iterations.
    """
    _check_psd(qp.Q)
    C, d = qp._stacked
    mt = d.size
    x = np.full(qp.n, 0.5)
    s = np.maximum(d - C @ x, 1.0)
    z = np.ones(mt)
    sz = s * z
    floor = CENTERING_FLOOR * tol

    status = "max_iter"
    iterations = MAX_ITER
    for it in range(MAX_ITER):
        r_d = qp.Q @ x + qp.g + C.T @ z
        r_p = C @ x + s - d
        if np.abs(r_d).max() <= tol and np.abs(r_p).max() <= tol and sz.max() <= tol:
            x_clip = np.clip(x, 0.0, 1.0)
            residual = _residual(qp, C, d, x_clip, z)
            if residual <= tol:
                status, iterations = "optimal", it
                break
        mu = float(sz.sum()) / mt
        z_over_s = z / s
        M = qp.Q + (C.T * z_over_s) @ C
        cf = _cho_factor(M)
        if cf is None:
            raise scipy.linalg.LinAlgError("the normal matrix is not positive definite")
        # With ds = -r_p - C dx and dz = w + (z/s) C dx, the Newton system
        # for a complementarity target t reduces to M dx = -(r_d + C'w),
        # w = (z/s) r_p + (t - s z - correction) / s.
        zr = z_over_s * r_p
        w = zr - z
        dx = _cho_solve(cf, -(r_d + C.T @ w))
        C_dx = C @ dx
        ds_aff = -r_p - C_dx
        dz_aff = w + z_over_s * C_dx
        alpha = _step_to_boundary(s, ds_aff, z, dz_aff, 1.0)
        mu_aff = float((s + alpha * ds_aff) @ (z + alpha * dz_aff)) / mt
        target = max(min(1.0, mu_aff / mu) ** 3 * mu, floor)
        w = zr + (target - sz - ds_aff * dz_aff) / s
        dx = _cho_solve(cf, -(r_d + C.T @ w))
        C_dx = C @ dx
        ds = -r_p - C_dx
        dz = w + z_over_s * C_dx
        alpha = _step_to_boundary(s, ds, z, dz, FRACTION_TO_BOUNDARY)
        while True:
            s_new, z_new = s + alpha * ds, z + alpha * dz
            sz_new = s_new * z_new
            if alpha < MIN_STEP or sz_new.min() >= NEIGHBORHOOD * sz_new.mean():
                break
            alpha *= 0.5
        if alpha < MIN_STEP:
            status, iterations = "stalled", it
            break
        x = x + alpha * dx
        s, z, sz = s_new, z_new, sz_new

    if status != "optimal":
        x_clip = np.clip(x, 0.0, 1.0)
        residual = _residual(qp, C, d, x_clip, z)
        if (qp.A @ x_clip - qp.u).max(initial=0.0) > max(1e-6, 1e3 * tol):
            status = "infeasible"
    m, n = qp.m, qp.n
    return QpSolution(x_clip, z[:m], z[m + n:], z[m:m + n], status, iterations, residual)


def kkt_residual(qp: QpProblem, sol: QpSolution) -> float:
    """Max of stationarity, primal-feasibility and complementarity residuals.

    Pure verification: depends only on the problem data and the candidate
    primal-dual point, never on solver internals.  solve_qp reports this
    value.
    """
    C, d = qp._stacked
    x = np.asarray(sol.x_star, dtype=float)
    z = np.concatenate([sol.duals_ineq, sol.duals_upper, sol.duals_lower], dtype=float)
    return _residual(qp, C, d, x, z)
