from dataclasses import replace

import numpy as np
import pytest

from adsbqp.bqp import (
    BETA,
    MIN_STEP,
    RHO0,
    _boxed,
    armijo_step,
    global_search,
    local_search,
    penalty_grad,
    penalty_phi,
    solve_bqp,
)
from adsbqp.driver import AdConfig
from adsbqp.qp import QpProblem
from _oracles import enumerate_boolean_qp


def box_qp(Q, g, A=None, u=None):
    n = np.asarray(g).size
    if A is None:
        A = np.zeros((0, n))
        u = np.zeros(0)
    return QpProblem(Q=Q, g=g, A=A, u=u, lower=0.0, upper=1.0)


def loose_rows(rng, n, m):
    """Rows that no box point can activate, so they never pin iterates."""
    A = rng.normal(size=(m, n))
    u = np.maximum(A, 0.0).sum(axis=1) + rng.uniform(0.1, 1.0, size=m)
    return A, u


def test_penalty_phi_values():
    assert penalty_phi(np.array([0.0, 1.0])) == 0.0
    assert penalty_phi(np.array([0.5, 0.5])) == pytest.approx(0.5)
    np.testing.assert_array_equal(penalty_grad(np.array([0.0, 1.0])), [1.0, -1.0])


def test_two_variable_instance_matches_enumeration():
    qp = box_qp(np.eye(2), np.array([-0.6, 0.4]))
    res = solve_bqp(qp)
    assert res.status == "success"
    np.testing.assert_array_equal(res.x_star, [1.0, 0.0])
    assert res.objective == pytest.approx(-0.1)
    assert res.complementarity == 0.0


def test_rho_escalates_geometrically_in_the_trace():
    qp = box_qp(np.eye(3), np.array([-0.5, -0.45, 0.2]))
    res = solve_bqp(qp)
    rhos = [it.rho for it in res.trace]
    assert rhos == sorted(rhos)
    for a, b in zip(rhos, rhos[1:]):
        assert b == pytest.approx(2.0 * a)


def test_global_search_ignores_the_penalty():
    qp = box_qp(np.eye(2), np.array([-0.5, -0.5]))
    sol = global_search(qp)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x_star, [0.5, 0.5], atol=1e-8)


def test_local_search_tilts_only_the_linear_term():
    qp = box_qp(np.eye(2), np.array([-0.5, -0.5]))
    x_hat = np.array([0.6, 0.2])
    rho = 8.0
    sol = local_search(qp, x_hat, rho)
    assert sol.status == "optimal"
    # Equivalent explicit QP with the tilted linear term.
    tilted = box_qp(np.eye(2), qp.g + rho * penalty_grad(x_hat))
    ref = global_search(tilted)
    np.testing.assert_allclose(sol.x_star, ref.x_star, atol=1e-8)


def test_armijo_accepts_full_step_on_clean_descent():
    qp = box_qp(np.eye(2), np.array([-0.6, 0.4]))
    x_hat = np.array([0.5, 0.5])
    x_tilde = np.array([1.0, 0.0])
    alpha = armijo_step(qp, x_hat, x_tilde, rho=1.0)
    assert alpha == 1.0


def test_armijo_falls_back_on_non_descent():
    qp = box_qp(np.eye(2), np.zeros(2))
    x_hat = np.array([0.0, 0.0])  # already the minimizer at rho = 0
    alpha = armijo_step(qp, x_hat, np.array([1.0, 1.0]), rho=0.0)
    assert alpha == MIN_STEP


def test_random_instances_reach_exact_boolean_points():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        B = rng.normal(size=(n, n)) / np.sqrt(n)
        Q = B @ B.T + np.eye(n)
        g = rng.normal(size=n)
        m = int(rng.integers(0, 3))
        A, u = loose_rows(rng, n, m)
        qp = box_qp(Q, g, A, u)
        res = solve_bqp(qp)
        assert res.status == "success"
        assert np.max(np.abs(res.x_star - np.round(res.x_star))) <= 1e-9
        assert abs(res.complementarity) <= 1e-10


def test_objective_gap_to_enumeration_is_logged_not_asserted():
    # The homotopy is a local method; record gaps, require feasibility only.
    rng = np.random.default_rng(11)
    gaps = []
    for _ in range(10):
        n = int(rng.integers(2, 7))
        B = rng.normal(size=(n, n)) / np.sqrt(n)
        Q = B @ B.T + np.eye(n)
        g = rng.normal(size=n)
        qp = box_qp(Q, g)
        res = solve_bqp(qp)
        assert res.status == "success"
        best_obj, _ = enumerate_boolean_qp(qp.Q, qp.g, qp.A, qp.u)
        gaps.append(res.objective - best_obj)
        assert res.objective >= best_obj - 1e-9
    assert all(np.isfinite(gaps))


def test_exact_saddle_reports_complementarity_not_met():
    # Symmetric instance whose relaxed optimum is exactly 1/2 on every
    # coordinate, where the linearized penalty vanishes: no round can move
    # the iterate, and the homotopy must say so instead of claiming success.
    qp = box_qp(np.eye(2), np.array([-0.5, -0.5]))
    res = solve_bqp(qp)
    assert res.status == "complementarity_not_met"
    assert res.complementarity > 1e-10
    assert res.trace
    assert len(res.trace) == 1  # the first round leaves x where it is


def test_config_validation():
    # The schedule is fixed; eps_comp is the one settable value.
    assert BETA > 1.0
    assert RHO0 > 0.0
    with pytest.raises(ValueError):
        AdConfig(eps_comp=0.0)


def test_trace_records_monotone_merit_progress():
    qp = box_qp(np.eye(4), np.array([-0.7, -0.2, 0.3, -0.55]))
    res = solve_bqp(qp)
    assert res.status == "success"
    assert len(res.trace) >= 1
    comps = [it.complementarity for it in res.trace]
    assert comps[-1] <= comps[0] + 1e-12


def test_boxed_reuses_a_box_qp_and_copies_any_other():
    qp = box_qp(np.eye(2), np.array([-2.0, 0.5]))
    assert _boxed(qp) is qp
    wide = replace(qp, lower=-np.ones(2), upper=np.full(2, 2.0))
    boxed = _boxed(wide)
    assert boxed is not wide
    np.testing.assert_array_equal(boxed.lower, np.zeros(2))
    np.testing.assert_array_equal(boxed.upper, np.ones(2))
    np.testing.assert_allclose(global_search(wide).x_star, [1.0, 0.0], atol=1e-7)
