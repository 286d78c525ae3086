"""Slow-but-sure reference implementations used to cross-check the solvers.

Everything here trades speed for being independently verifiable: projected
gradient with Dykstra projections for QPs, central finite differences for
derivatives, brute-force enumeration for Boolean problems and for antenna
selections, water-filling by bisection on the level, and the power
subproblem solved over all N*K powers instead of the K per-user totals.
"""

import numpy as np

from adsbqp import rate as rate_mod
from adsbqp.driver import NLP_TOL, Ad1InfeasibleError, ad1
from adsbqp.nlp import InfeasibleProblemError, NlpProblem, solve_barrier


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


def dykstra_project(y, C, d, lower, upper, cycles=60):
    """Projection onto {x: Cx <= d, lower <= x <= upper} by Dykstra's method.

    Row norms are computed once, and the box step and the row products use
    the numpy calls with the least overhead that give np.clip's and ``@``'s
    results bit for bit.
    """
    x = np.asarray(y, dtype=float).copy()
    rows = [(row, float(row @ row), float(d_k)) for row, d_k in zip(C, d)]
    box_correction = np.zeros_like(x)
    row_corrections = [np.zeros_like(x) for _ in rows]
    for _ in range(cycles):
        z = x + box_correction
        x = np.minimum(np.maximum(z, lower), upper)
        box_correction = z - x
        for k, (row, norm_sq, d_k) in enumerate(rows):
            z = x + row_corrections[k]
            violation = float(row.dot(z)) - d_k
            x = z - (violation / norm_sq) * row if violation > 0.0 else z
            row_corrections[k] = z - x
    return x


def projected_gradient_qp(Q, g, C, d, lower, upper, iters=3000, cycles=40):
    """Long-run projected gradient for min 0.5 x'Qx + g'x over the polytope.

    Step size 1/L with L the largest eigenvalue of Q; the projection is
    Dykstra onto the box intersected with the halfspaces.
    """
    Q = np.asarray(Q, dtype=float)
    g = np.asarray(g, dtype=float)
    n = g.size
    C = np.asarray(C, dtype=float).reshape(-1, n)
    d = np.asarray(d, dtype=float).reshape(-1)
    L = float(np.linalg.eigvalsh(Q)[-1])
    step = 1.0 / max(L, 1e-12)
    lo = np.broadcast_to(np.asarray(lower, dtype=float), (n,))
    hi = np.broadcast_to(np.asarray(upper, dtype=float), (n,))
    x = dykstra_project(np.zeros(n), C, d, lo, hi, cycles=cycles)
    for _ in range(iters):
        x = dykstra_project(x - step * (Q @ x + g), C, d, lo, hi, cycles=cycles)
    return x


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


def barrier_ad1(prob, x_bar):
    """Power subproblem as a barrier NLP over every power p_ij of the active rows.

    Minimizes sum_ij x_i p_ij subject to the rate threshold, one cap per
    active row and P >= 0.  It starts from the uniform allocation just
    inside the row caps; when that misses the rate, the barrier solver's
    phase 1 looks for a strictly feasible point on its own, so feasibility
    is decided independently of ``rate.rate_reachable``.  A failed phase 1
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
    P0 = rate_mod.uniform_power(prob, 1.0 - 1e-6)

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
        s = rate_mod.snr_all(to_full(z), x_bar, prob)
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
        sol = solve_barrier(nlp, tol=NLP_TOL, z0=P0[active].flatten(order="F"))
    except InfeasibleProblemError as exc:
        raise Ad1InfeasibleError(str(exc), achievable_rate=np.nan) from exc
    return to_full(sol.z_star), float(sol.duals[0])


def cheapest_exhaustive(prob, candidates):
    """ad1 on every candidate selection, in order; the first of equal
    objectives wins.  Returns (objective, x, P, n_feasible); the first three
    are None when no candidate is feasible."""
    best, n_feasible = (None, None, None), 0
    for x in candidates:
        try:
            P, _, _ = ad1(prob, x)
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
