"""Slow-but-sure reference implementations used to cross-check the solvers.

Everything here trades speed for being independently verifiable: SLSQP
with an exact solve on its active set for QPs, central finite differences for
derivatives, brute-force enumeration for Boolean problems and for antenna
selections, water-filling by bisection on the level, the power subproblem
solved over all N*K powers instead of the K per-user totals, and the
log-barrier Newton loop that evaluates every point in full and factors
through scipy's Cholesky wrappers.  The per-user SNR, the uniform
allocation, the full-activation rate by column norms and the all-on
allocation serve the tests and these oracles only.
"""

import numpy as np
import scipy.linalg
import scipy.optimize

from adsbqp import rate as rate_mod
from adsbqp.driver import Ad1InfeasibleError, ad1
from adsbqp.nlp import (
    ARMIJO_C1,
    HESSIAN_EIG_FLOOR,
    MIN_STEP,
    InfeasibleProblemError,
    NlpProblem,
    NlpSolution,
    find_strictly_feasible,
    solve_barrier,
)
from adsbqp.qp import FRACTION_TO_BOUNDARY, QpSolution, kkt_residual


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_jacobian(g, x, h=1e-6):
    """Central-difference Jacobian of a vector function (rows = outputs)."""
    x = np.asarray(x, dtype=float)
    g0 = np.asarray(g(x), dtype=float)
    J = np.zeros((g0.size, x.size))
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        J[:, i] = (np.asarray(g(x + e)) - np.asarray(g(x - e))) / (2.0 * h)
    return J


def active_set_qp(Q, g, C, d, lower, upper):
    """min 0.5 x'Qx + g'x over {Cx <= d, lower <= x <= upper}, finite bounds.

    scipy's SLSQP (Kraft's sequential least squares, an active-set method
    that shares nothing with qp.solve_qp's interior point) runs from the box
    midpoint and both corners, and the best end point that meets every row
    and bound names the active set: the rows and bounds within 1e-9 of
    tight.  The KKT system of the QP with those constraints as equalities
    is then solved exactly; when its solution is feasible and its
    multipliers have the right signs it is the exact minimizer (for convex
    Q) and is returned, else SLSQP's point is.
    """
    Q = np.asarray(Q, dtype=float)
    g = np.asarray(g, dtype=float)
    n = g.size
    C = np.asarray(C, dtype=float).reshape(-1, n)
    d = np.asarray(d, dtype=float).reshape(-1)
    lo = np.broadcast_to(np.asarray(lower, dtype=float), (n,))
    hi = np.broadcast_to(np.asarray(upper, dtype=float), (n,))
    rows = [{"type": "ineq", "fun": lambda x: d - C @ x, "jac": lambda x: -C}] if C.shape[0] else []

    def objective(x):
        return float(0.5 * x @ Q @ x + g @ x)

    best = None
    for x0 in (0.5 * (lo + hi), lo, hi):
        res = scipy.optimize.minimize(objective, x0, jac=lambda x: Q @ x + g, method="SLSQP",
                                      bounds=list(zip(lo, hi)), constraints=rows,
                                      options={"ftol": 1e-15, "maxiter": 500})
        x = np.clip(res.x, lo, hi)
        if (C @ x - d).max(initial=0.0) <= 1e-12 and (best is None or objective(x) < objective(best)):
            best = x
    tight = np.flatnonzero(d - C @ best <= 1e-9)
    at_hi = np.flatnonzero(hi - best <= 1e-9)
    at_lo = np.flatnonzero(best - lo <= 1e-9)
    E = np.vstack([C[tight], np.eye(n)[at_hi], -np.eye(n)[at_lo]])
    k = E.shape[0]
    kkt = np.block([[Q, E.T], [E, np.zeros((k, k))]])
    rhs = np.concatenate([-g, d[tight], hi[at_hi], -lo[at_lo]])
    solution = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    x, multipliers = solution[:n], solution[n:]
    if ((multipliers >= -1e-12).all() and (C @ x - d).max(initial=0.0) <= 1e-13
            and (x >= lo - 1e-13).all() and (x <= hi + 1e-13).all()):
        return np.clip(x, lo, hi)
    return best


def enumerate_boolean_qp(Q, g, C, d):
    """Best Boolean point of the QP objective subject to Cx <= d."""
    n = np.asarray(g).size
    best_obj, best_x = np.inf, None
    for mask in range(2 ** n):
        x = np.array([(mask >> i) & 1 for i in range(n)], dtype=float)
        if C.shape[0] and np.any(C @ x - d > 1e-9):
            continue
        obj = float(0.5 * x @ Q @ x + g @ x)
        if obj < best_obj:
            best_obj, best_x = obj, x
    return best_obj, best_x


def uniform_power(prob, scale=1.0):
    """Uniform allocation p_ij = scale * p_th / K (row sums scale * p_th)."""
    return np.full((prob.n_tx, prob.n_users), scale * prob.cfg.p_th / prob.n_users, dtype=float)


def snr_all(P, x, prob):
    """Vector of per-user SNRs (sum_i p_ij x_i) (sum_i |h_ij|^2 x_i^2) / sigma."""
    return (x @ P) * ((x ** 2) @ prob.gains) / prob.sigma


def full_activation_rate(P, prob):
    """Rate with every antenna on, from the column norms of the channel
    matrix rather than the elementwise gain accumulation of rate.sum_rate."""
    norms_sq = np.linalg.norm(prob.channel.entries, axis=0) ** 2
    return float(prob.bandwidth * np.sum(np.log1p(P.sum(axis=0) * norms_sq / prob.sigma)) / rate_mod.LN2)


def barrier_ad1(prob, x_bar):
    """Power subproblem as a barrier NLP over every power p_ij of the active rows.

    Minimizes sum_ij x_i p_ij subject to the rate threshold, one cap per
    active row and P >= 0.  It starts from the uniform allocation just
    inside the row caps; when that misses the rate, the barrier solver's
    phase 1 looks for a strictly feasible point on its own, so feasibility
    is decided independently of ``rate.water_filling``.  A failed phase 1
    raises ``Ad1InfeasibleError``, as ``driver.ad1`` does.  Returns
    (P_star, lambda_bar) with lambda_bar the rate-constraint multiplier.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    n, k = prob.n_tx, prob.n_users
    active = np.flatnonzero(x_bar > rate_mod.BOOLEAN_TOL)
    x_act = x_bar[active]
    na = active.size
    nz = na * k
    b = (x_bar ** 2) @ prob.gains
    P0 = uniform_power(prob, 1.0 - 1e-6)

    def to_full(z):
        P = np.zeros((n, k))
        P[active] = z.reshape((na, k), order="F")
        return P

    c_lin = np.tile(x_act, k)
    row_jac = np.zeros((na, nz))
    for i in range(na):
        row_jac[i, i::na] = 1.0
    outer_xx = np.outer(x_act, x_act)

    def constraints(z):
        c = np.empty(1 + na)
        c[0] = prob.r_th - rate_mod.sum_rate(to_full(z), x_bar, prob)
        c[1:] = z.reshape((na, k), order="F").sum(axis=1) - prob.cfg.p_th
        return c

    def constraints_jac(z):
        J = np.empty((1 + na, nz))
        grad_p = rate_mod.grad_rate_wrt_power(to_full(z), x_bar, prob)
        J[0] = -grad_p[active].flatten(order="F")
        J[1:] = row_jac
        return J

    def constraints_hess(z, w):
        s = snr_all(to_full(z), x_bar, prob)
        c2 = prob.bandwidth / (rate_mod.LN2 * (1.0 + s) ** 2)
        H = np.zeros((nz, nz))
        for j in range(k):
            blk = w[0] * c2[j] * (b[j] / prob.sigma) ** 2 * outer_xx
            H[j * na : (j + 1) * na, j * na : (j + 1) * na] = blk
        return H

    nlp = NlpProblem(
        n=nz,
        objective=lambda z: float(c_lin @ z),
        gradient=lambda z: c_lin,
        hessian=lambda z: np.zeros((nz, nz)),
        lower=np.zeros(nz),
        upper=np.full(nz, np.inf),
        m=1 + na,
        constraints=constraints,
        constraints_jac=constraints_jac,
        constraints_hess=constraints_hess,
    )
    try:
        sol = solve_barrier(nlp, z0=P0[active].flatten(order="F"))
    except InfeasibleProblemError as exc:
        raise Ad1InfeasibleError(str(exc)) from exc
    return to_full(sol.z_star), float(sol.duals[0])


def full_activation_allocation(prob):
    """ad1 with every antenna on; returns (P, objective)."""
    ones = np.ones(prob.n_tx)
    P, _ = ad1(prob, ones)
    return P, rate_mod.economic_objective(P, ones, prob)


def cheapest_exhaustive(prob, candidates):
    """ad1 on every candidate selection, in order; the first of equal
    objectives wins.  Returns (objective, x, P, n_feasible); the first three
    are None when no candidate is feasible."""
    best, n_feasible = (None, None, None), 0
    for x in candidates:
        try:
            P, _ = ad1(prob, x)
        except Ad1InfeasibleError:
            continue
        n_feasible += 1
        obj = rate_mod.economic_objective(P, x, prob)
        if best[0] is None or obj < best[0]:
            best = (obj, x, P)
    return (*best, n_feasible)


def enumerate_exhaustive(prob):
    """ENUM without the bound: ad1 on every nonzero bitmask in ascending order."""
    n = prob.n_tx
    return cheapest_exhaustive(
        prob,
        (np.array([(mask >> i) & 1 for i in range(n)], dtype=float) for mask in range(1, 2 ** n)),
    )


def water_filling_by_bisection(snr_gain, r_th, bandwidth, steps=200):
    """Least total power reaching r_th: the water level nu found by bisection
    in log nu on rate(nu) = B sum_j log2(max(1, nu g_j)), then the total
    sum_j max(0, nu - 1/g_j).  inf when no gain is positive."""
    g = np.asarray(snr_gain, dtype=float)
    g = g[g > 0.0]
    if g.size == 0:
        return np.inf
    lo, hi = np.log(1.0 / g.max()), np.log(1.0 / g.min()) + r_th * np.log(2.0) / bandwidth
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        rate = bandwidth * np.sum(np.log2(np.maximum(1.0, np.exp(mid) * g)))
        lo, hi = (mid, hi) if rate < r_th else (lo, mid)
    nu = np.exp(hi)
    return float(np.sum(np.maximum(0.0, nu - 1.0 / g)))


def _strictly_inside(prob, z):
    lo_fin = np.isfinite(prob.lower)
    up_fin = np.isfinite(prob.upper)
    if np.any(z[lo_fin] <= prob.lower[lo_fin]) or np.any(z[up_fin] >= prob.upper[up_fin]):
        return False
    return not (prob.m and np.any(prob.cons(z) >= 0.0))


def _barrier_terms(prob, z, mu):
    """Value, gradient and Hessian contributions of all barrier terms, or None
    when z is outside the open feasible region."""
    lo_gap = z - prob.lower
    up_gap = prob.upper - z
    lo_fin = np.isfinite(prob.lower)
    up_fin = np.isfinite(prob.upper)
    if np.any(lo_gap[lo_fin] <= 0) or np.any(up_gap[up_fin] <= 0):
        return None
    value = 0.0
    grad = np.zeros(prob.n)
    hess_diag = np.zeros(prob.n)
    if np.any(lo_fin):
        value -= mu * float(np.sum(np.log(lo_gap[lo_fin])))
        grad[lo_fin] -= mu / lo_gap[lo_fin]
        hess_diag[lo_fin] += mu / lo_gap[lo_fin] ** 2
    if np.any(up_fin):
        value -= mu * float(np.sum(np.log(up_gap[up_fin])))
        grad[up_fin] += mu / up_gap[up_fin]
        hess_diag[up_fin] += mu / up_gap[up_fin] ** 2
    slack = None
    if prob.m:
        slack = -prob.cons(z)
        if np.any(slack <= 0):
            return None
        value -= mu * float(np.sum(np.log(slack)))
    return value, grad, hess_diag, slack


def _barrier_value(prob, z, mu):
    terms = _barrier_terms(prob, z, mu)
    if terms is None:
        return np.inf
    return prob.objective(z) + terms[0]


def _shift_to_pd(H, floor=HESSIAN_EIG_FLOOR):
    """Factorization of H + tau*I with tau chosen so min eigenvalue >= floor."""
    n = H.shape[0]
    eye = np.eye(n)
    try:
        return scipy.linalg.cho_factor(H + floor * eye, lower=True)
    except scipy.linalg.LinAlgError:
        pass
    min_eig = float(scipy.linalg.eigvalsh(H, subset_by_index=(0, 0))[0])
    tau = max(floor - min_eig, floor)
    for _ in range(60):
        try:
            return scipy.linalg.cho_factor(H + tau * eye, lower=True)
        except scipy.linalg.LinAlgError:
            tau = 10.0 * tau + floor
    raise scipy.linalg.LinAlgError("could not regularize the Newton system")


def _kkt_residual(prob, z, duals, mu):
    grad = prob.gradient(z)
    if prob.m:
        J = np.asarray(prob.constraints_jac(z), dtype=float).reshape(prob.m, prob.n)
        grad = grad + J.T @ duals
    lo_fin = np.isfinite(prob.lower)
    up_fin = np.isfinite(prob.upper)
    nu_lo = np.where(lo_fin, mu / np.maximum(z - prob.lower, np.finfo(float).tiny), 0.0)
    nu_up = np.where(up_fin, mu / np.maximum(prob.upper - z, np.finfo(float).tiny), 0.0)
    res = float(np.max(np.abs(grad - nu_lo + nu_up), initial=0.0))
    if prob.m:
        res = max(res, float(np.max(prob.cons(z), initial=0.0)))
    return res


def solve_barrier_reference(prob, tol=1e-8, z0=None, mu0=1.0, mu_factor=10.0, max_newton_per_mu=200):
    """The log-barrier loop as it stood before each point was evaluated once.

    Every Newton step rebuilds the barrier value, gradient and Hessian
    diagonal at its start and re-evaluates the objective there; every
    line-search trial builds them all again to read the value; the Newton
    system goes through scipy.linalg.cho_factor/cho_solve.  nlp.solve_barrier
    must return the same bytes.
    """
    if z0 is None or not _strictly_inside(prob, np.asarray(z0, float)):
        z0 = find_strictly_feasible(prob, z0)
    z = np.asarray(z0, dtype=float).copy()
    stage = 0
    mu_min = tol * 0.1
    mu = max(float(mu0), mu_min)
    total_iters = 0
    status = "optimal"

    while True:
        converged_inner = False
        for _ in range(max_newton_per_mu):
            terms = _barrier_terms(prob, z, mu)
            if terms is None:
                raise RuntimeError("barrier iterate left the feasible interior")
            _, bgrad, bhess_diag, slack = terms
            grad = prob.gradient(z) + bgrad
            if prob.m:
                J = np.asarray(prob.constraints_jac(z), dtype=float).reshape(prob.m, prob.n)
                grad = grad + J.T @ (mu / slack)
            if np.max(np.abs(grad)) <= max(mu, tol):
                converged_inner = True
                break
            H = prob.hessian(z) + np.diag(bhess_diag)
            if prob.m:
                H = H + (J.T * (mu / slack ** 2)) @ J
                if prob.constraints_hess is not None:
                    H = H + prob.constraints_hess(z, mu / slack)
            cf = _shift_to_pd(0.5 * (H + H.T))
            step = scipy.linalg.cho_solve(cf, -grad)
            base = prob.objective(z) + terms[0]
            slope = float(grad @ step)
            alpha = 1.0
            accepted = False
            while alpha >= MIN_STEP:
                trial = z + alpha * step
                if _barrier_value(prob, trial, mu) <= base + ARMIJO_C1 * alpha * slope:
                    z = trial
                    accepted = True
                    break
                alpha *= 0.5
            total_iters += 1
            if not accepted:
                status = "stalled"
                break
            if alpha * float(np.max(np.abs(step))) <= 1e-15 * (1.0 + float(np.max(np.abs(z)))):
                converged_inner = True
                break
        if status == "stalled":
            break
        if not converged_inner:
            status = "max_iter"
            break
        if mu <= mu_min:
            break
        stage += 1
        mu = max(mu0 / mu_factor ** stage, mu_min)

    if prob.m:
        slack = -prob.cons(z)
        duals = mu / np.maximum(slack, np.finfo(float).tiny)
    else:
        duals = np.zeros(0)
    return NlpSolution(z, duals, status, total_iters, mu, _kkt_residual(prob, z, duals, mu))


def _psd_cholesky_reference(Q):
    try:
        return scipy.linalg.cho_factor(Q, lower=True)
    except scipy.linalg.LinAlgError:
        pass
    try:
        return scipy.linalg.cho_factor(Q + 1e-12 * np.eye(Q.shape[0]), lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError("Q is not positive semidefinite") from exc


# The fixed centering parameter of the reference QP loop.
CENTERING_SIGMA = 0.1


def solve_qp_reference(qp, tol=1e-10, max_iter=100):
    """A plain primal-dual path-following loop for the box QP: fixed
    centering (CENTERING_SIGMA), one Newton solve per iteration through
    scipy.linalg.cho_factor/cho_solve, and a stop on the mean
    complementarity s'z / mt.  It stacks the rows Ax <= u, x <= 1 and
    -x <= 0 itself.  qp.solve_qp, a predictor-corrector, must agree with it
    on status and solution, not on bytes.
    """
    n, m = qp.n, qp.m
    _psd_cholesky_reference(qp.Q)
    C = np.vstack([qp.A, np.eye(n), -np.eye(n)])
    d = np.concatenate([qp.u, np.ones(n), np.zeros(n)])
    mt = d.size

    x = np.full(n, 0.5)
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

    x = np.clip(x, 0.0, 1.0)
    sol = QpSolution(x, z[:m], z[m + n:], z[m:m + n], status, iterations, 0.0)
    sol.kkt_residual = kkt_residual(qp, sol)
    if status != "optimal" and float(np.max(qp.A @ x - qp.u, initial=0.0)) > max(1e-6, 1e3 * tol):
        sol.status = "infeasible"
    return sol
