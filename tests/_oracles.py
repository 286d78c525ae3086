"""Slow-but-sure reference implementations used to cross-check the solvers.

Everything here trades speed for being independently verifiable: projected
gradient with Dykstra projections for QPs, central finite differences for
derivatives, brute-force enumeration for Boolean problems, and the power
subproblem solved over all N*K powers instead of the K per-user totals.
"""

import numpy as np

from adsbqp import rate as rate_mod
from adsbqp.driver import AdConfig, _uniform_start
from adsbqp.nlp import NlpProblem, solve_barrier


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


def barrier_ad1(prob, x_bar, cfg=None):
    """Power subproblem as a barrier NLP over every power p_ij of the active rows.

    Minimizes sum_ij x_i p_ij subject to the rate threshold, one cap per
    active row and P >= 0, from the same uniform start as ``driver.ad1``
    (which raises ``Ad1InfeasibleError`` when no such start exists).  Returns
    (P_star, lambda_bar) with lambda_bar the rate-constraint multiplier.
    """
    cfg = cfg or AdConfig()
    x_bar = np.asarray(x_bar, dtype=float)
    n, k = prob.n_tx, prob.n_users
    active = np.flatnonzero(x_bar > cfg.boolean_tol)
    x_act = x_bar[active]
    na = active.size
    nz = na * k
    b = (x_bar ** 2) @ prob.gains
    P0 = _uniform_start(prob, x_bar)

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
    sol = solve_barrier(nlp, tol=cfg.nlp_tol, z0=P0[active].flatten(order="F"))
    return to_full(sol.z_star), float(sol.duals[0])
