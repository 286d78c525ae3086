"""Dense convex box QP solver: min 0.5 x'Qx + g'x  s.t.  Ax <= u,  0 <= x <= 1.

solve_qp has two paths.  The default is Mehrotra's primal-dual
predictor-corrector interior point (Mehrotra 1992; Nocedal & Wright,
Numerical Optimization, sec. 16.6) with a 0.995 fraction-to-boundary rule.
Each call stacks all inequalities (general rows plus the box) into a single
slack system C x + s = d, s >= 0; each iteration factors the condensed
normal matrix Q + C' diag(z/s) C once by a dense Cholesky and solves with
that factor twice, for the affine-scaling predictor and for the centering
corrector; a solve ends as "max_iter" after MAX_ITER iterations.  The
other is a primal active-set method (Nocedal & Wright, Algorithm 16.3)
for a QP with one general row, run from a feasible start the caller
supplies: AD2's homotopy solves QPs that differ only in their linear term,
and an active set resumes from the face the last one ended on, where the
interior point must start again from the box center.  Its answer is
returned only with a KKT certificate; otherwise the interior point solves
the QP from scratch (see solve_qp for the routing rule).  Both paths and
kkt_residual take the KKT residual on the general rows and the box
(_residual).  A QpProblem is validated once, when it is built, convexity
included, and QpProblem.with_g shares all of it but the linear term.  The
Cholesky factor and solve go to LAPACK's potrf/potrs directly, behind the
finiteness checks scipy.linalg.cho_factor/cho_solve would make; nlp's
Newton system uses the same routines, and nlp and driver take a least
eigenvalue from syevr as scipy.linalg.eigvalsh would.
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
# Active-set iterations per variable before the interior point takes over.
# Each iteration adds or drops one bound or the row.  On seed grids of 4 to
# 64 antennas AD-SBQP's QPs take at most 2 per variable (a global search at
# n = 4), a homotopy round at most 1 (at most 5 iterations from n = 20);
# random convex one-row QPs up to 3.5 (7 at n = 2).
ACTIVE_SET_ITER_PER_VARIABLE = 4
# The active set serves a QP only when the row's tolerance band, tol /
# max|a| in x, is at most ROW_REACH, 1e-3 times bqp.SNAP_REACH.  The
# interior point may end anywhere in that band, and bqp snaps a coordinate
# within SNAP_REACH of {0, 1} onto it; with the band far narrower than that
# reach, both paths' answers snap alike.  AD2's rate row is not scaled: its
# band is at most 6.2e-11 at noise 3e-14 and at least 8.5e-8 at noise >=
# 1e-6, where the exact answer moved 9 of 320 selections of a seed grid.
# Any value from 1e-10 to 1e-8 splits that grid's QPs the same way.
ROW_REACH = 1e-9

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

    Construction validates the data, convexity included (by a Cholesky
    factor of Q), and stores Q symmetrized; solve_qp checks nothing more.
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
        Q = 0.5 * (Q + Q.T)
        _check_psd(Q)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        return self.g.size

    @property
    def m(self) -> int:
        return self.u.size

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.Q @ x + self.g @ x)

    def with_g(self, g: np.ndarray) -> QpProblem:
        """This problem with the linear term g.  Only g is checked; Q, A and
        u, validated when this problem was built, are shared, so the QPs of
        a homotopy factor their Q once."""
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
    iterations: int  # of the path that produced the solution
    kkt_residual: float
    path: str = "interior_point"  # | "active_set"


def _check_psd(Q: np.ndarray) -> None:
    """Raise ValueError unless Q, or Q + 1e-12 I at a single retry, has a
    Cholesky factor."""
    if _cho_factor(Q) is None and _cho_factor(Q + 1e-12 * np.eye(Q.shape[0])) is None:
        raise ValueError("Q is not positive semidefinite")


def _residual(qp: QpProblem, x: np.ndarray, z_row: np.ndarray, z_lower: np.ndarray,
              z_upper: np.ndarray) -> float:
    """The KKT residual of (x, z) on the general rows and the box: the max
    of |Qx + g + A'z_row + z_upper - z_lower|, of the violations of Ax <= u
    and 0 <= x <= 1, and of each multiplier times its slack."""
    slack = np.concatenate((qp.u - qp.A @ x, 1.0 - x, x))
    z = np.concatenate((z_row, z_upper, z_lower))
    return max(float(np.abs(qp.Q @ x + qp.g + (qp.A.T @ z_row + z_upper - z_lower)).max()),
               float((-slack).max(initial=0.0)),
               float(np.abs(z * slack).max(initial=0.0)))


def _step_to_boundary(s, ds, z, dz, fraction):
    """min(1, fraction * the largest step keeping s + a*ds and z + a*dz >= 0).

    The ratios ds/s and dz/z need no mask: s and z are positive."""
    t = -min(float((ds / s).min()), float((dz / z).min()))
    return min(1.0, fraction / t) if t > 0.0 else 1.0


def _takes_active_set(qp: QpProblem, start: np.ndarray | None, tol: float) -> bool:
    """True when solve_qp tries the active set: a start is given, the QP has
    one general row, the start lies in the box and meets the row within
    tol, and the row's tolerance band tol / max|a| is at most ROW_REACH."""
    if start is None or qp.m != 1:
        return False
    a = qp.A[0]
    return bool(0.0 <= start.min() and start.max() <= 1.0 and a @ start - qp.u[0] <= tol
                and tol <= ROW_REACH * np.abs(a).max())


def _active_set(qp: QpProblem, start: np.ndarray, tol: float) -> QpSolution | None:
    """Primal active-set method for the box QP with one row a'x <= u, from
    a feasible start (Nocedal & Wright, Algorithm 16.3); None when it gives
    no certified answer.

    The working set fixes each coordinate that sits at 0 or 1, and holds the
    row when it is tight; the start's working set is its coordinates at 0 or
    1 and the row when its slack is at most tol.  Each iteration factors the
    free block Q_FF (potrf) and solves once with the two right-hand sides
    [grad_F, a_F]: with the row in the working set, the step p and the row
    multiplier nu follow by Schur complement.  A ratio test over the free
    coordinates and the row adds the first constraint that blocks; a full
    step lands on the face minimizer, where the bound multipliers are read
    off the gradient and the most negative multiplier, if below -tol, is
    dropped.  Every constraint added blocks a step that the working set
    allows, so the working set stays linearly independent.  The answer is
    returned only when every multiplier is >= 0 and its KKT residual is at
    most tol; a non-finite g, a free block that fails its factor, a
    degenerate row, or ACTIVE_SET_ITER_PER_VARIABLE iterations per
    variable also give None.
    iterations counts the face solves.
    """
    Q, g = qp.Q, qp.g
    a, u = qp.A[0], float(qp.u[0])
    # Q is finite (checked when qp was built) and so, checked here, is g: the
    # loop calls LAPACK without _cho_factor's and _cho_solve's checks.
    if not np.isfinite(g).all():
        return None
    x = start.copy()
    free = (x > 0.0) & (x < 1.0)
    on_row = u - a @ x <= tol and bool(a[free].any())
    for it in range(1, ACTIVE_SET_ITER_PER_VARIABLE * qp.n + 1):
        F = np.flatnonzero(free)
        nu = 0.0
        if F.size:
            Q_F = Q[F]
            c, info = _POTRF(Q_F[:, F], lower=True, clean=False)
            if info:
                return None
            grad, a_F = Q_F @ x + g[F], a[F]
            if on_row:
                y, v = _POTRS(c, np.array((grad, a_F)).T, lower=True)[0].T
                curvature = float(a_F @ v)
                if not curvature > 0.0:
                    return None
                nu = -float(a_F @ y) / curvature
                p = -(y + nu * v)
            else:
                p = -_POTRS(c, grad, lower=True)[0]
            x_F = x[F]
            # The distance to the bound each coordinate heads for; only a
            # bound nearer than |p| blocks, so no ratio overflows.
            room, speed = np.where(p < 0.0, x_F, 1.0 - x_F), np.abs(p)
            ratios = np.divide(room, speed, out=np.ones(F.size), where=room < speed)
            k = int(ratios.argmin())
            alpha = float(ratios[k])
            blocks_row = False
            if not on_row:
                rise = float(a_F @ p)
                row_slack = u - float(a @ x)
                blocks_row = rise > 0.0 and row_slack < alpha * rise
                if blocks_row:
                    alpha = max(0.0, row_slack / rise)
            if alpha < 1.0:
                x[F] = x_F + alpha * p
                if blocks_row:
                    on_row = True
                else:
                    x[F[k]] = 0.0 if p[k] < 0.0 else 1.0
                    free[F[k]] = False
                continue
            x[F] = np.clip(x_F + p, 0.0, 1.0)
        # x minimizes the QP over the face the working set fixes.
        r = Q @ x + g + nu * a
        fixed = ~free
        z_upper = np.where(fixed & (x == 1.0), -r, 0.0)
        z_lower = np.where(fixed & (x == 0.0), r, 0.0)
        bound = z_upper + z_lower
        i = int(bound.argmin())
        if min(bound[i], nu) < -tol:
            if nu < bound[i]:
                on_row = False
            else:
                free[i] = True
            continue
        # A multiplier in [-tol, 0) is a zero one plus rounding: dropping
        # its constraint only cycles through steps of zero length.  It is
        # reported as 0, and the residual check below decides.
        nu = max(nu, 0.0)
        z_upper, z_lower = np.maximum(z_upper, 0.0), np.maximum(z_lower, 0.0)
        z_row = np.array([nu])
        residual = _residual(qp, x, z_row, z_lower, z_upper)
        if not residual <= tol:  # NaN data fail here too
            return None
        return QpSolution(x, z_row, z_lower, z_upper, "optimal", it, residual, "active_set")
    return None


def solve_qp(qp: QpProblem, tol: float = 1e-10, start: np.ndarray | None = None) -> QpSolution:
    """Solve the QP, by the active set from start where it applies and
    otherwise by an infeasible-start Mehrotra predictor-corrector.

    The active set (_active_set) runs when a start is given, the QP has one
    general row, the start lies in the box and meets the row within tol,
    and the row's scale is far above the tolerance: tol / max|a| <=
    ROW_REACH.  Its answer, with path "active_set", is returned only when
    every multiplier is >= 0 and its KKT residual is at most tol, the
    guarantee below; otherwise the interior point solves the QP from
    scratch, as it does without a start, and returns what it would have
    returned then, with path "interior_point".

    Each interior-point iteration factors the normal matrix once, by
    LAPACK's potrf, and solves with the factor twice (potrs): the predictor
    is the affine-scaling step, whose complementarity after the longest
    step to the boundary, mu_aff, sets sigma = min(1, mu_aff/mu)^3; the
    corrector targets max(sigma*mu, CENTERING_FLOOR*tol) and adds the
    predictor's second-order term ds_aff*dz_aff.  The step goes 0.995 of the way to the
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
    data, convexity included, were checked when qp was built.  A non-finite
    normal matrix or right-hand side raises ValueError, as scipy's Cholesky
    wrappers would.  iterations counts the iterations of the path that
    answered.
    """
    if start is not None:
        start = np.asarray(start, dtype=float).reshape(qp.n)
    if _takes_active_set(qp, start, tol):
        sol = _active_set(qp, start, tol)
        if sol is not None:
            return sol
    m, n = qp.m, qp.n
    eye = np.eye(n)
    C = np.vstack([qp.A, eye, -eye])
    d = np.concatenate([qp.u, np.ones(n), -np.zeros(n)])
    mt = d.size
    x = np.full(n, 0.5)
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
            residual = _residual(qp, x_clip, z[:m], z[m + n:], z[m:m + n])
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
            if alpha < MIN_STEP or sz_new.min() >= NEIGHBORHOOD * (sz_new.sum() / mt):
                break
            alpha *= 0.5
        if alpha < MIN_STEP:
            status, iterations = "stalled", it
            break
        x = x + alpha * dx
        s, z, sz = s_new, z_new, sz_new

    if status != "optimal":
        x_clip = np.clip(x, 0.0, 1.0)
        residual = _residual(qp, x_clip, z[:m], z[m + n:], z[m:m + n])
        if (qp.A @ x_clip - qp.u).max(initial=0.0) > max(1e-6, 1e3 * tol):
            status = "infeasible"
    return QpSolution(x_clip, z[:m], z[m + n:], z[m:m + n], status, iterations, residual)


def kkt_residual(qp: QpProblem, sol: QpSolution) -> float:
    """Max of stationarity, primal-feasibility and complementarity residuals.

    Pure verification: depends only on the problem data and the candidate
    primal-dual point, never on solver internals.  solve_qp reports this
    value.
    """
    x = np.asarray(sol.x_star, dtype=float)
    return _residual(qp, x, sol.duals_ineq, sol.duals_lower, sol.duals_upper)
