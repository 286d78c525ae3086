"""Dense convex QP solver: min 0.5 x'Qx + g'x  s.t.  Ax <= u,  lo <= x <= up.

Primal-dual path-following interior point with fixed centering (sigma = 0.1)
and a 0.995 fraction-to-boundary rule.  All inequalities (general rows plus
finite bounds) are stacked into a single slack system; the Newton step is
taken on the condensed normal equations with a dense Cholesky.  A QpProblem
is validated once, when it is built.  The Cholesky factor and solve go to
LAPACK's potrf/potrs directly, behind the finiteness checks
scipy.linalg.cho_factor/cho_solve would make; nlp's Newton system uses the
same routines.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np
import scipy.linalg

__all__ = ["QpProblem", "QpSolution", "solve_qp", "kkt_residual"]

FRACTION_TO_BOUNDARY = 0.995
CENTERING_SIGMA = 0.1

# The double-precision routines scipy.linalg.cho_factor/cho_solve call; on
# the 16x16 systems of AD-SBQP and the 2-4 variable ones of the barrier NLP
# the wrappers cost more than the factorization.
_POTRF, _POTRS = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), (np.zeros(1),))


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
    """cho_solve((c, True), b): solve with the lower factor c of _cho_factor."""
    _check_finite(b)
    _check_finite(c)
    x, info = _POTRS(c, b, lower=True)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


@dataclass(frozen=True)
class QpProblem:
    """Dense convex QP data.  Q must be finite and symmetric PSD (up to noise).

    Construction validates the data and stores Q symmetrized; solve_qp
    checks only convexity, which needs the factorization it makes anyway.
    """

    Q: np.ndarray
    g: np.ndarray
    A: np.ndarray
    u: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        g = np.atleast_1d(np.asarray(self.g, dtype=float))
        n = g.size
        A = np.asarray(self.A, dtype=float).reshape(-1, n)
        u = np.atleast_1d(np.asarray(self.u, dtype=float)).reshape(-1)
        lower = np.broadcast_to(np.asarray(self.lower, dtype=float), (n,)).copy()
        upper = np.broadcast_to(np.asarray(self.upper, dtype=float), (n,)).copy()
        if Q.shape != (n, n):
            raise ValueError("Q must be n x n")
        if not np.isfinite(Q).all():
            raise ValueError("Q must be finite")
        if np.abs(Q - Q.T).max(initial=0.0) > 1e-12:
            raise ValueError("Q must be symmetric within 1e-12")
        if A.shape[0] != u.size:
            raise ValueError("A and u row counts differ")
        if (lower > upper).any():
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "Q", 0.5 * (Q + Q.T))
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n(self) -> int:
        return self.g.size

    @property
    def m(self) -> int:
        return self.u.size

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.Q @ x + self.g @ x)


@dataclass
class QpSolution:
    x_star: np.ndarray
    duals_ineq: np.ndarray
    duals_lower: np.ndarray
    duals_upper: np.ndarray
    status: str  # "optimal" | "infeasible" | "max_iter"
    iterations: int
    kkt_residual: float


def _psd_cholesky(Q: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with a single 1e-12 jitter retry; loud failure otherwise."""
    c = _cho_factor(Q)
    if c is None:
        c = _cho_factor(Q + 1e-12 * np.eye(Q.shape[0]))
        if c is None:
            raise ValueError("Q is not positive semidefinite")
    return c


def _stack_constraints(qp: QpProblem):
    """All inequalities as C x <= d (general rows, then upper, then lower bounds)."""
    n = qp.n
    eye = np.eye(n)
    blocks_C = [qp.A]
    blocks_d = [qp.u]
    up_idx = np.flatnonzero(np.isfinite(qp.upper))
    lo_idx = np.flatnonzero(np.isfinite(qp.lower))
    blocks_C.append(eye[up_idx])
    blocks_d.append(qp.upper[up_idx])
    blocks_C.append(-eye[lo_idx])
    blocks_d.append(-qp.lower[lo_idx])
    C = np.vstack(blocks_C)
    d = np.concatenate(blocks_d)
    return C, d, up_idx, lo_idx


def solve_qp(qp: QpProblem, tol: float = 1e-10, max_iter: int = 100) -> QpSolution:
    """Solve the QP by an infeasible-start primal-dual interior-point method.

    Status "optimal" means stationarity and primal feasibility within tol
    and a mean complementarity s'z / mt within tol, so one complementarity
    pair, and kkt_residual, can reach mt * tol; bounds are enforced exactly
    by a final clip.  A run that cannot drive primal infeasibility down is
    reported as "infeasible" with the residual as certificate.  The data
    were validated when qp was built.  Q is factored once here, to check
    convexity and, without inequalities, to solve; each iteration factors
    its normal matrix by LAPACK's potrf, with one jitter retry, and solves
    by potrs.  A non-finite Q, normal matrix or right-hand side raises
    ValueError, as scipy's Cholesky wrappers would.  iterations counts the
    interior-point iterations.
    """
    n = qp.n
    # Checks convexity up front (caller contract).
    cf = _psd_cholesky(qp.Q)
    C, d, up_idx, lo_idx = _stack_constraints(qp)
    mt = d.size
    if mt == 0:
        x = _cho_solve(cf, -qp.g)
        sol = QpSolution(x, np.zeros(0), np.zeros(n), np.zeros(n), "optimal", 0, 0.0)
        sol.kkt_residual = kkt_residual(qp, sol)
        return sol

    x = np.where(
        np.isfinite(qp.lower) & np.isfinite(qp.upper),
        0.5 * (qp.lower + qp.upper),
        np.clip(0.0, qp.lower, qp.upper),
    )
    s = np.maximum(d - C @ x, 1.0)
    z = np.ones(mt)

    status = "max_iter"
    iterations = max_iter
    for it in range(max_iter):
        r_d = qp.Q @ x + qp.g + C.T @ z
        r_p = C @ x + s - d
        mu = float(s @ z) / mt
        if np.abs(r_d).max() <= tol and np.abs(r_p).max() <= tol and mu <= tol:
            status = "optimal"
            iterations = it
            break
        w = (CENTERING_SIGMA * mu - s * z + z * r_p) / s
        z_over_s = z / s
        M = qp.Q + (C.T * z_over_s) @ C
        rhs = -(r_d + C.T @ w)
        cf = _cho_factor(M)
        if cf is None:
            cf = _cho_factor(M + 1e-10 * max(1.0, np.abs(M).max()) * np.eye(n))
            if cf is None:
                raise scipy.linalg.LinAlgError("the normal matrix is not positive definite")
        dx = _cho_solve(cf, rhs)
        C_dx = C @ dx
        ds = -r_p - C_dx
        dz = w + z_over_s * C_dx

        alpha = 1.0
        neg_s = ds < 0
        if neg_s.any():
            alpha = min(alpha, FRACTION_TO_BOUNDARY * (-s[neg_s] / ds[neg_s]).min())
        neg_z = dz < 0
        if neg_z.any():
            alpha = min(alpha, FRACTION_TO_BOUNDARY * (-z[neg_z] / dz[neg_z]).min())
        x = x + alpha * dx
        s = s + alpha * ds
        z = z + alpha * dz

    x = np.clip(x, qp.lower, qp.upper)
    m = qp.m
    duals_ineq = z[:m].copy()
    duals_upper = np.zeros(n)
    duals_lower = np.zeros(n)
    duals_upper[up_idx] = z[m : m + up_idx.size]
    duals_lower[lo_idx] = z[m + up_idx.size :]
    sol = QpSolution(x, duals_ineq, duals_lower, duals_upper, status, iterations, 0.0)
    sol.kkt_residual = kkt_residual(qp, sol)
    if status != "optimal":
        violation = 0.0
        if m:
            violation = max(violation, float(np.max(qp.A @ x - qp.u, initial=0.0)))
        if violation > max(1e-6, 1e3 * tol):
            sol.status = "infeasible"
    return sol


def kkt_residual(qp: QpProblem, sol: QpSolution) -> float:
    """Max of stationarity, primal-feasibility and complementarity residuals.

    Pure verification: depends only on the problem data and the candidate
    primal-dual point, never on solver internals.
    """
    x = np.asarray(sol.x_star, dtype=float)
    lam = np.asarray(sol.duals_ineq, dtype=float)
    mu_lo = np.asarray(sol.duals_lower, dtype=float)
    mu_up = np.asarray(sol.duals_upper, dtype=float)
    stationarity = qp.Q @ x + qp.g + qp.A.T @ lam - mu_lo + mu_up
    res = float(np.max(np.abs(stationarity), initial=0.0))
    if qp.m:
        slack = qp.u - qp.A @ x
        res = max(res, float(np.max(-slack, initial=0.0)))
        res = max(res, float(np.max(np.abs(lam * slack), initial=0.0)))
    lo = np.where(np.isfinite(qp.lower), x - qp.lower, np.inf)
    up = np.where(np.isfinite(qp.upper), qp.upper - x, np.inf)
    res = max(res, float(np.max(-lo, initial=0.0)))
    res = max(res, float(np.max(-up, initial=0.0)))
    with np.errstate(invalid="ignore"):
        comp_lo = np.where(np.isfinite(lo), np.abs(mu_lo * lo), 0.0)
        comp_up = np.where(np.isfinite(up), np.abs(mu_up * up), 0.0)
    res = max(res, float(np.max(comp_lo, initial=0.0)))
    res = max(res, float(np.max(comp_up, initial=0.0)))
    return res
