import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adsbqp import bqp
from adsbqp.channel import ScenarioConfig
from adsbqp.driver import solve
from adsbqp.qp import QpProblem, QpSolution, kkt_residual, solve_qp
from adsbqp.rate import build_esr_problem
from _oracles import projected_gradient_qp, solve_qp_reference


def box_qp(Q, g, A=None, u=None, lower=0.0, upper=1.0):
    n = np.asarray(g).size
    if A is None:
        A = np.zeros((0, n))
        u = np.zeros(0)
    return QpProblem(Q=Q, g=g, A=A, u=u, lower=lower, upper=upper)


def random_convex_qp(rng, n_max=10, m_max=6):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(0, m_max + 1))
    B = rng.normal(size=(n, n)) / np.sqrt(n)
    Q = B @ B.T + np.eye(n)
    g = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    # Anchor the rows around an interior point so the feasible set is fat.
    u = A @ np.full(n, 0.5) + rng.uniform(0.2, 1.5, size=m)
    return box_qp(Q, g, A, u)


def unconstrained_qp():
    return QpProblem(
        Q=np.diag([2.0, 4.0]),
        g=np.array([-2.0, -4.0]),
        A=np.zeros((0, 2)),
        u=np.zeros(0),
        lower=-np.inf,
        upper=np.inf,
    )


def clipped_qp():
    return box_qp(np.eye(2), np.array([-2.0, 0.5]))


def active_row_qp():
    # min 0.5||x||^2 - e'x  s.t. x1 + x2 <= 1: optimum splits the budget.
    return box_qp(np.eye(2), -np.ones(2), A=np.array([[1.0, 1.0]]), u=np.array([1.0]))


def interior_qp():
    return box_qp(np.eye(2), np.array([-0.3, 0.7]))


def infeasible_qp():
    return box_qp(np.eye(1), np.zeros(1), A=np.array([[-1.0]]), u=np.array([-2.0]))


def singular_qp():
    # A rank-deficient PSD matrix goes through the single-jitter retry.
    return box_qp(np.ones((2, 2)), np.array([0.1, -0.2]))


def random_qps():
    rng = np.random.default_rng(42)
    return [random_convex_qp(rng) for _ in range(25)]


def oracle_qps():
    rng = np.random.default_rng(7)
    return [random_convex_qp(rng, n_max=5, m_max=3) for _ in range(5)]


def test_unconstrained_quadratic_hits_the_analytic_minimum():
    sol = solve_qp(unconstrained_qp())
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x_star, [1.0, 1.0], atol=1e-9)


def test_box_clipping_is_exact_at_termination():
    sol = solve_qp(clipped_qp())
    assert sol.status == "optimal"
    assert np.all(sol.x_star >= 0.0) and np.all(sol.x_star <= 1.0)
    np.testing.assert_allclose(sol.x_star, [1.0, 0.0], atol=1e-7)


def test_active_inequality_row():
    sol = solve_qp(active_row_qp())
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x_star, [0.5, 0.5], atol=1e-8)
    assert sol.duals_ineq[0] == pytest.approx(0.5, abs=1e-6)


def test_kkt_residual_is_a_pure_function_of_the_candidate():
    qp = interior_qp()
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    assert sol.kkt_residual <= 1e-10
    # Corrupting the point must show up in the recomputed residual.
    fake = QpSolution(
        x_star=sol.x_star + 0.1,
        duals_ineq=sol.duals_ineq,
        duals_lower=sol.duals_lower,
        duals_upper=sol.duals_upper,
        status="optimal",
        iterations=sol.iterations,
        kkt_residual=0.0,
    )
    assert kkt_residual(qp, fake) > 1e-3


def test_random_qps_reach_tight_kkt_residuals():
    for qp in random_qps():
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        assert sol.kkt_residual <= 1e-10


def test_agreement_with_projected_gradient_oracle():
    for qp in oracle_qps():
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        x_ref = projected_gradient_qp(
            qp.Q, qp.g, qp.A, qp.u, qp.lower, qp.upper, iters=4000
        )
        assert qp.objective(sol.x_star) <= qp.objective(x_ref) + 1e-8


def test_infeasible_problem_is_reported():
    sol = solve_qp(infeasible_qp())
    assert sol.status == "infeasible"


def test_infeasible_problem_ends_at_the_step_floor_without_overflow():
    # The iterates of an infeasible QP run to the boundary of s, z >= 0 with
    # ever shorter steps; the loop ends once a step falls below MIN_STEP,
    # long before z overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = solve_qp(infeasible_qp())
    assert sol.status == "infeasible" and sol.iterations < 30
    assert np.isfinite(sol.duals_ineq).all()


def degenerate_qp():
    # A hypothesis draw; the second row is active at x = (11/24) * 1 and
    # the first is not.
    return box_qp(np.full((3, 3), 3.0) + np.eye(3), np.full(3, 10.0),
                  A=np.array([[0.0, -1.0, -1.0], [-1.0, -1.0, -1.0]]), u=np.array([-0.875, -1.375]))


def degenerate_vertex_qp():
    # The row x2 <= x1 and both lower bounds are active at x = 0, the bounds
    # with zero multipliers.  Without the centering floor the complementarity
    # outruns the dual residual, z/s of the row passes 1e16 and the dual
    # residual stalls above 1e-10 until max_iter; the fixed-centering
    # reference loop ends at max_iter too.
    return box_qp(np.array([[5.0, 2.0], [2.0, 6.0]]), np.array([7.0, -7.0]),
                  A=np.array([[-1.0, 1.0], [1.0, 1.0]]), u=np.array([0.0, 2.0]))


def single_point_qp():
    # The row x2 >= x1 + 1 leaves only x = (0, 1) in the box.  An iterate
    # passes the loop's own test (each residual and s_i z_i within tol)
    # while the residual of its clipped point is 1.16e-10: there z_i times
    # the primal residual adds to z_i * slack_i.  The loop goes on.
    return box_qp(np.diag([4.0, 6.0]), np.array([-1.0, -4.0]), A=np.array([[1.0, -1.0]]), u=np.array([-1.0]))


def repeated_rows_qp():
    # A hypothesis draw, rounded: three copies of the active row sum(x) >= 1.75
    # and a looser one.  Without the neighborhood the products drift far
    # apart and Mehrotra's steps cycle with mu near 0.1-0.3 until max_iter.
    Q = np.array([[1.7, -0.1, -0.1, -0.1], [-0.1, 1.0, 0.0, 0.0], [-0.1, 0.0, 1.0, 0.0],
                  [-0.1, 0.0, 0.0, 1.0]])
    return box_qp(Q, np.full(4, 10.0), A=np.full((4, 4), -0.4), u=np.array([-0.2, -0.7, -0.7, -0.7]))


# At the vertex the bounds' zero multipliers leave x within ~sqrt(tol) of it.
@pytest.mark.parametrize("make, x, atol", [(degenerate_qp, np.full(3, 1.375 / 3), 1e-9),
                                           (degenerate_vertex_qp, np.zeros(2), 1e-6),
                                           (single_point_qp, np.array([0.0, 1.0]), 1e-9),
                                           (repeated_rows_qp, np.array([22.75, 31.5, 31.5, 31.5]) / 67, 1e-9)])
def test_degenerate_qp_is_solved(make, x, atol):
    qp = make()
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    assert kkt_residual(qp, sol) <= 1e-10
    np.testing.assert_allclose(sol.x_star, x, atol=atol)


def test_start_point_with_an_unbounded_coordinate_does_not_warn():
    # One row and a coordinate with no finite bound: the start point takes
    # the box midpoint only where both bounds are finite.
    qp = QpProblem(Q=np.eye(2), g=np.array([-3.0, 0.0]), A=np.array([[1.0, 1.0]]), u=np.array([0.0]),
                   lower=np.array([0.0, -np.inf]), upper=np.array([1.0, np.inf]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = solve_qp(qp)
    assert sol.status == "optimal" and sol.kkt_residual <= 1e-10
    np.testing.assert_allclose(sol.x_star, [1.0, -1.0], atol=1e-9)


def test_with_g_shares_all_but_the_linear_term():
    qp = active_row_qp()
    tilted = qp.with_g(np.array([-2.0, 0.0]))
    for name in ("Q", "A", "u", "lower", "upper"):
        assert getattr(tilted, name) is getattr(qp, name)
    np.testing.assert_array_equal(qp.g, -np.ones(2))
    want = solve_qp(box_qp(np.eye(2), np.array([-2.0, 0.0]), A=qp.A, u=qp.u))
    got = solve_qp(tilted)
    assert got.x_star.tobytes() == want.x_star.tobytes()
    with pytest.raises(ValueError, match="n entries"):
        qp.with_g(np.zeros(3))


def test_validation_rejects_bad_data():
    with pytest.raises(ValueError):
        QpProblem(
            Q=np.array([[1.0, 0.5], [0.0, 1.0]]),  # not symmetric
            g=np.zeros(2),
            A=np.zeros((0, 2)),
            u=np.zeros(0),
            lower=0.0,
            upper=1.0,
        )
    with pytest.raises(ValueError):
        box_qp(np.eye(2), np.zeros(2), lower=1.0, upper=0.0)
    with pytest.raises(ValueError):
        QpProblem(
            Q=np.eye(2),
            g=np.zeros(2),
            A=np.ones((2, 2)),
            u=np.ones(1),
            lower=0.0,
            upper=1.0,
        )


def test_symmetry_is_checked_to_1e_12():
    box_qp(np.array([[1.0, 1e-12], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="symmetric"):
        box_qp(np.array([[1.0, 2e-12], [0.0, 1.0]]), np.zeros(2))


def test_indefinite_matrix_is_rejected_loudly():
    qp = box_qp(np.diag([1.0, -1.0]), np.zeros(2))
    with pytest.raises(ValueError):
        solve_qp(qp)


def test_equalities_of_scale_one_preserved_with_jitter():
    sol = solve_qp(singular_qp())
    assert sol.status == "optimal"
    assert sol.kkt_residual <= 1e-8


# Every problem above, by the name the reference test reports.
PROBLEMS = {
    "unconstrained": unconstrained_qp,
    "clipped": clipped_qp,
    "active_row": active_row_qp,
    "interior": interior_qp,
    "infeasible": infeasible_qp,
    "singular": singular_qp,
    **{f"random_{i}": (lambda i=i: random_qps()[i]) for i in range(25)},
    **{f"oracle_{i}": (lambda i=i: oracle_qps()[i]) for i in range(5)},
}


def assert_agrees(qp, got, want, tol=1e-10):
    """The predictor-corrector and the fixed-centering reference loop reach
    the same status and, when optimal, objectives within 2 * mt * tol
    (relative above 1): each stops with a duality gap s'z of at most mt * tol."""
    assert got.status == want.status
    if want.status == "optimal":
        mt = want.duals_ineq.size + np.isfinite(qp.lower).sum() + np.isfinite(qp.upper).sum()
        f_want = qp.objective(want.x_star)
        assert abs(qp.objective(got.x_star) - f_want) <= 2 * mt * tol * max(1.0, abs(f_want))


# The names say "bit for bit" from when solve_qp was the reference loop
# itself; the predictor-corrector takes other iterates, so they assert
# agreement.
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_solve_matches_the_reference_loop_bit_for_bit(name):
    qp = PROBLEMS[name]()
    assert_agrees(qp, solve_qp(qp), solve_qp_reference(qp))


def test_ad2_qps_match_the_reference_loop_bit_for_bit(monkeypatch):
    # Every box QP of AD-SBQP at 16x16, the global search and each tilted
    # round, at the tolerance the homotopy gives it: the same status and
    # objective, and the same point once bqp._snap_boolean has rounded it
    # (bit for bit where it snaps to {0,1}, within its 1e-6 reach where it
    # leaves a fractional point alone).
    calls = []

    def recorded(qp, tol=1e-10, max_iter=100):
        calls.append((qp, tol))
        return solve_qp(qp, tol=tol, max_iter=max_iter)

    monkeypatch.setattr(bqp, "solve_qp", recorded)
    for seed in range(4):
        cfg = ScenarioConfig(n_tx=16, n_users=16, seed=seed, r_th_mode="fraction",
                             r_th_value=0.5, noise_n0b=3e-14)
        solve(build_esr_problem(cfg))
    assert {tol > 1e-10 for _, tol in calls} == {False, True}
    snapped = 0
    for qp, tol in calls:
        got, want = solve_qp(qp, tol=tol), solve_qp_reference(qp, tol=tol)
        assert_agrees(qp, got, want, tol)
        x_got, x_want = bqp._snap_boolean(qp, got.x_star), bqp._snap_boolean(qp, want.x_star)
        boolean = np.array_equal(x_got, np.round(x_got))
        assert boolean == np.array_equal(x_want, np.round(x_want))
        if boolean:
            snapped += 1
            assert x_got.tobytes() == x_want.tobytes()
        else:
            np.testing.assert_allclose(x_got, x_want, rtol=0, atol=1e-6)
    assert 0 < snapped < len(calls)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_q_is_rejected_when_built(bad):
    with pytest.raises(ValueError, match="finite"):
        box_qp(np.array([[1.0, bad], [bad, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        box_qp(np.diag([bad, 1.0]), np.zeros(2))


def non_finite_q():
    qp = interior_qp()
    qp.Q[0, 0] = np.nan  # changed after validation
    return qp


def overflowing_normal_matrix():
    # C' diag(z/s) C overflows in the first iteration.
    return box_qp(np.eye(2), np.zeros(2), A=np.array([[1e200, 1e200]]), u=np.array([1e200]))


def non_finite_rhs():
    return box_qp(np.eye(2), np.array([np.nan, 0.0]), A=np.ones((1, 2)), u=np.ones(1))


@pytest.mark.parametrize("make", [non_finite_q, overflowing_normal_matrix, non_finite_rhs])
def test_non_finite_newton_system_raises_value_error(make):
    for solve_fn in (solve_qp, solve_qp_reference):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
            solve_fn(make())


def _unit_floats(shape):
    return arrays(np.float64, shape, elements=st.floats(-1.0, 1.0, allow_nan=False))


@st.composite
def convex_box_qps(draw):
    """Random convex QPs over [0, 1]^n with 0-6 rows that all hold with a
    margin at the box center, so every draw is feasible with an interior."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 6))
    B = draw(_unit_floats((n, n)))
    g = 10.0 * draw(_unit_floats(n))
    A = draw(_unit_floats((m, n)))
    margin = draw(arrays(np.float64, m, elements=st.floats(0.1, 2.0)))
    return box_qp(B @ B.T + np.eye(n), g, A, A @ np.full(n, 0.5) + margin)


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(convex_box_qps())
def check_random_convex_box_qp(qp):
    sol = solve_qp(qp)
    # What solve_qp's docstring guarantees for a QP with inequalities:
    # "optimal" means kkt_residual <= tol at the returned point, and the
    # reported residual is kkt_residual's.
    assert sol.status == "optimal"
    assert sol.kkt_residual == kkt_residual(qp, sol) <= 1e-10


def test_random_convex_box_qps_are_solved():
    t0 = time.perf_counter()
    check_random_convex_box_qp()
    assert time.perf_counter() - t0 < 20.0
