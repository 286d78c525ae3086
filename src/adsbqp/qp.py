"""Dense convex QP solver: min 0.5 x'Qx + g'x  s.t.  Ax <= u,  lo <= x <= up.

Primal-dual path-following interior point with fixed centering (sigma = 0.1)
and a 0.995 fraction-to-boundary rule.  All inequalities (general rows plus
finite bounds) are stacked into a single slack system; the Newton step is
taken on the condensed normal equations with a dense Cholesky.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np
import scipy.linalg

__all__ = ["QpProblem", "QpSolution", "solve_qp", "kkt_residual"]

FRACTION_TO_BOUNDARY = 0.995
CENTERING_SIGMA = 0.1


@dataclass(frozen=True)
class QpProblem:
    """Dense convex QP data.  Q must be symmetric PSD (up to noise)."""

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
        if not np.allclose(Q, Q.T, atol=1e-12, rtol=0.0):
            raise ValueError("Q must be symmetric within 1e-12")
        if A.shape[0] != u.size:
            raise ValueError("A and u row counts differ")
        if np.any(lower > upper):
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


def _psd_cholesky(Q: np.ndarray):
    """Cholesky with a single 1e-12 jitter retry; loud failure otherwise."""
    try:
        return scipy.linalg.cho_factor(Q, lower=True)
    except scipy.linalg.LinAlgError:
        pass
    try:
        return scipy.linalg.cho_factor(Q + 1e-12 * np.eye(Q.shape[0]), lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError("Q is not positive semidefinite") from exc


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

    On status "optimal" the returned point satisfies stationarity, primal
    feasibility and complementarity within tol; bounds are enforced exactly
    by a final clip.  A run that cannot drive primal infeasibility down is
    reported as "infeasible" with the residual as certificate.
    """
    n = qp.n
    # Checks convexity up front (caller contract).
    _psd_cholesky(qp.Q)
    C, d, up_idx, lo_idx = _stack_constraints(qp)
    mt = d.size
    if mt == 0:
        cf = _psd_cholesky(qp.Q)
        x = scipy.linalg.cho_solve(cf, -qp.g)
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
        if (
            np.max(np.abs(r_d)) <= tol
            and np.max(np.abs(r_p)) <= tol
            and mu <= tol
        ):
            status = "optimal"
            iterations = it
            break
        w = (CENTERING_SIGMA * mu - s * z + z * r_p) / s
        M = qp.Q + (C.T * (z / s)) @ C
        rhs = -(r_d + C.T @ w)
        try:
            cf = scipy.linalg.cho_factor(M, lower=True)
        except scipy.linalg.LinAlgError:
            cf = scipy.linalg.cho_factor(
                M + 1e-10 * max(1.0, np.abs(M).max()) * np.eye(n), lower=True
            )
        dx = scipy.linalg.cho_solve(cf, rhs)
        ds = -r_p - C @ dx
        dz = w + (z / s) * (C @ dx)

        alpha = 1.0
        neg_s = ds < 0
        if np.any(neg_s):
            alpha = min(alpha, FRACTION_TO_BOUNDARY * np.min(-s[neg_s] / ds[neg_s]))
        neg_z = dz < 0
        if np.any(neg_z):
            alpha = min(alpha, FRACTION_TO_BOUNDARY * np.min(-z[neg_z] / dz[neg_z]))
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
