import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adsbqp import bqp
from adsbqp import qp as qp_mod
from adsbqp.bqp import (
    BETA,
    QP_TOL,
    RHO0,
    penalty_grad,
    penalty_phi,
    solve_bqp,
)
from adsbqp.channel import ScenarioConfig
from adsbqp.driver import solve
from adsbqp.qp import QpProblem, solve_qp
from adsbqp.rate import build_esr_problem
from _oracles import enumerate_boolean_qp


def box_qp(Q, g, A=None, u=None):
    n = np.asarray(g).size
    if A is None:
        A = np.zeros((0, n))
        u = np.zeros(0)
    return QpProblem(Q=Q, g=g, A=A, u=u)


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
    assert qp.objective(res.x_star) == pytest.approx(-0.1)
    assert penalty_phi(res.x_star) == 0.0


def test_rho_escalates_geometrically_in_the_trace():
    qp = box_qp(np.eye(3), np.array([-0.5, -0.45, 0.2]))
    res = solve_bqp(qp)
    rhos = [it.rho for it in res.trace]
    assert rhos == sorted(rhos)
    for a, b in zip(rhos, rhos[1:]):
        assert b == pytest.approx(2.0 * a)


@pytest.mark.parametrize("error", [scipy.linalg.LinAlgError("the normal matrix is not positive definite"),
                                   ValueError("array must not contain infs or NaNs")])
def test_a_qp_solve_that_raises_ends_as_qp_failed(monkeypatch, error):
    # The global minimizer (0.5, 0.45, 0) is fractional, so the homotopy runs.
    qp = box_qp(np.eye(3), np.array([-0.5, -0.45, 0.2]))
    x_global = solve_qp(qp, tol=bqp.QP_TOL).x_star

    def raising_after(solved):
        calls = []

        def solve(*args, **kwargs):
            calls.append(None)
            if len(calls) > solved:
                raise error
            return solve_qp(*args, **kwargs)
        return solve

    for solved in (0, 1):
        monkeypatch.setattr(bqp, "solve_qp", raising_after(solved))
        res = solve_bqp(qp)
        assert (res.status, res.trace) == ("qp_failed", [])
        if solved == 0:  # the global search raised: no point to return
            assert res.x_star is None
        else:  # the first round raised: the homotopy ends at its start
            np.testing.assert_array_equal(res.x_star, x_global)


def test_global_search_ignores_the_penalty():
    # solve_bqp's global search is the plain QP: here the fractional saddle.
    qp = box_qp(np.eye(2), np.array([-0.5, -0.5]))
    sol = solve_qp(qp, tol=QP_TOL)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x_star, [0.5, 0.5], atol=1e-8)


def test_local_search_tilts_only_the_linear_term():
    qp = box_qp(np.eye(2), np.array([-0.5, -0.5]))
    x_hat = np.array([0.6, 0.2])
    rho = 8.0
    tilted = qp.with_g(qp.g + rho * penalty_grad(x_hat))
    for name in ("Q", "A", "u"):
        assert getattr(tilted, name) is getattr(qp, name)
    sol = solve_qp(tilted, tol=QP_TOL * rho)
    assert sol.status == "optimal"
    # Equivalent explicit QP with the tilted linear term.
    ref = solve_qp(box_qp(np.eye(2), qp.g + rho * penalty_grad(x_hat)), tol=QP_TOL)
    np.testing.assert_allclose(sol.x_star, ref.x_star, atol=1e-8)


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
        assert abs(penalty_phi(res.x_star)) <= 1e-10


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
        gaps.append(qp.objective(res.x_star) - best_obj)
        assert gaps[-1] >= -1e-9
    assert all(np.isfinite(gaps))


def test_exact_saddle_reports_complementarity_not_met():
    # Symmetric instance whose relaxed optimum is exactly 1/2 on every
    # coordinate, where the linearized penalty vanishes: no round can move
    # the iterate, and the homotopy must say so instead of claiming success.
    qp = box_qp(np.eye(2), np.array([-0.5, -0.5]))
    res = solve_bqp(qp)
    assert res.status == "complementarity_not_met"
    assert penalty_phi(res.x_star) > 1e-10
    assert res.trace
    assert len(res.trace) == 1  # the first round leaves x where it is


def test_config_validation():
    # The schedule and the complementarity tolerance are constants.
    assert BETA > 1.0
    assert RHO0 > 0.0
    assert bqp.EPS_COMP > 0.0


def test_trace_records_monotone_merit_progress():
    qp = box_qp(np.eye(4), np.array([-0.7, -0.2, 0.3, -0.55]))
    res = solve_bqp(qp)
    assert res.status == "success"
    assert len(res.trace) >= 1
    comps = [it.complementarity for it in res.trace]
    assert comps[-1] <= comps[0] + 1e-12


def test_each_round_lowers_the_merit_by_the_majorization_bound(monkeypatch):
    # The tilted QP majorizes M = q + rho*phi, so its minimizer x_tilde
    # obeys M(x_tilde) - M(x_hat) <= -(rho ||d||^2 + 0.5 d'Qd), d = x_tilde
    # - x_hat, up to the duality gap of the round's QP, at most mt * tol.
    t0 = time.perf_counter()
    solves = []  # (qp, tol, x_star) of every QP solve_bqp solves

    def recording(qp, tol, start=None):
        sol = solve_qp(qp, tol=tol, start=start)
        solves.append((qp, tol, sol.x_star))
        return sol

    monkeypatch.setattr(bqp, "solve_qp", recording)
    rng = np.random.default_rng(30)
    for i in range(100):  # criterion 3's generator; odd draws add a row through the box centre
        n = int(rng.integers(2, 13))
        B = rng.normal(size=(n, n)) / np.sqrt(n)
        A, u = loose_rows(rng, n, int(rng.integers(0, 4)))
        qp = box_qp(B @ B.T + np.eye(n), rng.normal(size=n), A, u)
        if i % 2:
            a = rng.normal(size=n)
            qp = replace(qp, A=np.vstack([qp.A, a]), u=np.append(qp.u, 0.5 * a.sum()))
        solve_bqp(qp)
    for seed in range(4):
        solve(build_esr_problem(ScenarioConfig(n_tx=16, n_users=16, seed=seed, r_th_mode="fraction",
                                               r_th_value=0.5, noise_n0b=3e-14)))
    # A solve_bqp call first solves its own QP (the global search); round i
    # of its homotopy then solves a QP sharing that QP's Q, at rho = RHO0 *
    # BETA**i from the snapped last iterate x_hat.
    rounds, qp = [], None
    for solved, tol, x_star in solves:
        if qp is not None and solved.Q is qp.Q:  # round i of qp's homotopy
            rho = RHO0 * BETA ** i
            assert solved.g.tobytes() == (qp.g + rho * penalty_grad(x_hat)).tobytes()
            assert tol == QP_TOL * max(1.0, rho)
            rounds.append((qp, rho, x_hat, x_star, tol))
            i += 1
        else:  # the global search of the next solve_bqp call
            qp, i = solved, 0
            assert tol == QP_TOL
        x_hat = bqp._snap_boolean(qp, x_star)
    assert len(rounds) >= 100
    for qp, rho, x_hat, x_tilde, tol in rounds:
        d = x_tilde - x_hat
        merit_change = (qp.objective(x_tilde) + rho * penalty_phi(x_tilde)
                        - qp.objective(x_hat) - rho * penalty_phi(x_hat))
        assert merit_change <= -(rho * d @ d + 0.5 * d @ qp.Q @ d) + (2 * qp.n + qp.m) * tol
    assert time.perf_counter() - t0 < 10.0


def test_rowless_and_multi_row_rounds_start_at_x_hat(monkeypatch):
    # Only a QP with one row gets a rounded start; every other round starts
    # at the snapped last iterate, as it is.
    solves = []  # (start, x_star) of every QP solve_bqp solves

    def recording(qp, tol, start=None):
        sol = solve_qp(qp, tol=tol, start=start)
        solves.append((start, sol.x_star))
        return sol

    monkeypatch.setattr(bqp, "solve_qp", recording)
    rng = np.random.default_rng(4)
    # The global minimizer (0.7, 0.45, 0) is fractional, so the homotopy runs.
    qp = box_qp(np.eye(3), np.array([-0.7, -0.45, 0.2]))
    for rows in (0, 2):
        rowed = box_qp(qp.Q, qp.g, *loose_rows(rng, 3, rows))
        solves.clear()
        assert solve_bqp(rowed).status == "success"
        assert len(solves) >= 2
        for (_, x_star), (start, _) in zip(solves, solves[1:]):
            assert start.tobytes() == bqp._snap_boolean(rowed, x_star).tobytes()


@st.composite
def one_row_rounds(draw):
    """A one-row box QP whose row has mixed signs and zero entries, of scale
    at most 100, and an x_hat in the box that meets the row."""
    n = draw(st.integers(1, 12))
    entry = st.one_of(st.just(0.0), st.floats(-100.0, 100.0, allow_nan=False))
    a = draw(arrays(np.float64, n, elements=entry))
    x_hat = draw(arrays(np.float64, n, elements=st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                                                          st.floats(0.0, 1.0))))
    slack = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
    return box_qp(np.eye(n), np.zeros(n), a[None, :], np.array([a @ x_hat + slack])), x_hat


@settings(max_examples=300, deadline=None, database=None, print_blob=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(one_row_rounds())
def check_rounded_start(case):
    qp, x_hat = case
    a, u = qp.A[0], qp.u[0]
    start = bqp._rounded_start(qp, x_hat)
    assert ((0.0 <= start) & (start <= 1.0)).all()
    assert a @ start - u <= QP_TOL
    if QP_TOL <= qp_mod.ROW_REACH * np.abs(a).max():
        assert qp_mod._takes_active_set(qp, start, QP_TOL)
    if start is not x_hat:
        assert ((start > 0.0) & (start < 1.0)).sum() <= 1
    if a @ np.round(x_hat) <= u:
        assert start.tobytes() == np.round(x_hat).tobytes()


def test_each_one_row_round_starts_in_the_box_on_the_row():
    t0 = time.perf_counter()
    check_rounded_start()
    assert time.perf_counter() - t0 < 10.0
