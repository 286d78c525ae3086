import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adsbqp import bqp
from adsbqp import qp as qp_mod
from adsbqp.channel import ScenarioConfig
from adsbqp.driver import solve
from adsbqp.qp import QpProblem, QpSolution, kkt_residual, solve_qp
from adsbqp.rate import build_esr_problem
from _oracles import active_set_qp, solve_qp_reference


def box_qp(Q, g, a=None, u=None):
    """The box QP with the row a'x <= u; by default the row sum(x) <= n + 1,
    which no point of the box violates."""
    n = np.asarray(g).size
    if a is None:
        a, u = np.ones(n), n + 1.0
    return QpProblem(Q=Q, g=g, a=a, u=u)


def random_convex_qp(rng, n_max=10):
    n = int(rng.integers(2, n_max + 1))
    B = rng.normal(size=(n, n)) / np.sqrt(n)
    Q = B @ B.T + np.eye(n)
    g = rng.normal(size=n)
    a = rng.normal(size=n)
    # Anchor the row around an interior point so the feasible set is fat.
    u = a @ np.full(n, 0.5) + rng.uniform(0.2, 1.5)
    return box_qp(Q, g, a, u)


def clipped_qp():
    return box_qp(np.eye(2), np.array([-2.0, 0.5]))


def active_row_qp():
    # min 0.5||x||^2 - e'x  s.t. x1 + x2 <= 1: optimum splits the budget.
    return box_qp(np.eye(2), -np.ones(2), a=np.array([1.0, 1.0]), u=1.0)


def interior_qp():
    return box_qp(np.eye(2), np.array([-0.3, 0.7]))


def infeasible_qp():
    return box_qp(np.eye(1), np.zeros(1), a=np.array([-1.0]), u=-2.0)


def singular_qp():
    # A rank-deficient PSD matrix goes through the single-jitter retry.
    return box_qp(np.ones((2, 2)), np.array([0.1, -0.2]))


def random_qps():
    rng = np.random.default_rng(42)
    return [random_convex_qp(rng) for _ in range(25)]


def oracle_qps():
    rng = np.random.default_rng(7)
    return [random_convex_qp(rng, n_max=5) for _ in range(5)]


def test_box_clipping_is_exact_at_termination():
    sol = solve_qp(clipped_qp())
    assert sol.status == "optimal"
    assert np.all(sol.x_star >= 0.0) and np.all(sol.x_star <= 1.0)
    np.testing.assert_allclose(sol.x_star, [1.0, 0.0], atol=1e-7)


def test_active_inequality_row():
    sol = solve_qp(active_row_qp())
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x_star, [0.5, 0.5], atol=1e-8)
    assert sol.dual_row == pytest.approx(0.5, abs=1e-6)


def test_kkt_residual_is_a_pure_function_of_the_candidate():
    qp = interior_qp()
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    assert sol.kkt_residual <= 1e-10
    # Corrupting the point must show up in the recomputed residual.
    fake = QpSolution(
        x_star=sol.x_star + 0.1,
        dual_row=sol.dual_row,
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


def test_agreement_with_the_active_set_oracle():
    for qp in oracle_qps():
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        x_ref = active_set_qp(qp.Q, qp.g, qp.a, qp.u, 0.0, 1.0)
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
    assert np.isfinite(sol.dual_row)


def degenerate_qp():
    # A hypothesis draw, less a row that is not active at the answer: the
    # row is active at x = (11/24) * 1.
    return box_qp(np.full((3, 3), 3.0) + np.eye(3), np.full(3, 10.0), a=-np.ones(3), u=-1.375)


def degenerate_vertex_qp():
    # The row x2 <= x1 and both lower bounds are active at x = 0, the bounds
    # with zero multipliers.  Without the centering floor the complementarity
    # outruns the dual residual and z/s grows until the normal matrix fails
    # its factor; the fixed-centering reference loop ends at max_iter.
    return box_qp(np.array([[5.0, 2.0], [2.0, 6.0]]), np.array([7.0, -7.0]), a=np.array([-1.0, 1.0]), u=0.0)


def single_point_qp():
    # The row x2 >= x1 + 1 leaves only x = (0, 1) in the box.  An iterate
    # passes the loop's own test (each residual and s_i z_i within tol)
    # while the residual of its clipped point is 1.16e-10: there z_i times
    # the primal residual adds to z_i * slack_i.  The loop goes on.
    return box_qp(np.diag([4.0, 6.0]), np.array([-1.0, -4.0]), a=np.array([1.0, -1.0]), u=-1.0)


def cycling_qp():
    # A random integer draw: the row is active at x = (9, 76, 16) / 83 and
    # no bound is.  Without the neighborhood Mehrotra's steps cycle until
    # max_iter.
    Q = np.array([[28.0, -21.0, -3.0], [-21.0, 20.0, 9.0], [-3.0, 9.0, 20.0]])
    return box_qp(Q, np.array([-4.0, 3.0, 9.0]), a=np.array([1.0, -1.0, -1.0]), u=-1.0)


# At the vertex the bounds' zero multipliers leave x within ~sqrt(tol) of it.
@pytest.mark.parametrize("make, x, atol", [(degenerate_qp, np.full(3, 1.375 / 3), 1e-9),
                                           (degenerate_vertex_qp, np.zeros(2), 1e-6),
                                           (single_point_qp, np.array([0.0, 1.0]), 1e-9),
                                           (cycling_qp, np.array([9.0, 76.0, 16.0]) / 83, 1e-9)])
def test_degenerate_qp_is_solved(make, x, atol):
    qp = make()
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    assert kkt_residual(qp, sol) <= 1e-10
    np.testing.assert_allclose(sol.x_star, x, atol=atol)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the interior point's neighbourhood halving (NEIGHBORHOOD) stalls both: a step falls below "
    "MIN_STEP after 14 and 17 iterations, at residuals 1.6 and 0.47; with NEIGHBORHOOD = 0 both "
    "end optimal.  ROADMAP item 3 moves the interior point out of src/"))
def test_convex_feasible_qps_that_the_neighbourhood_stalls():
    # Two hypothesis draws of test_active_set_answers_are_certified: convex,
    # feasible one-row box QPs, solved here from no start.
    badly_scaled_row = box_qp(np.eye(3), np.full(3, -10.0), a=np.array([1.0, 1e-6, 1e-6]), u=1e-6)
    tight_row = box_qp(np.eye(6), np.full(6, -6.015625), a=np.full(6, 0.9375), u=0.00390625)
    for qp in (badly_scaled_row, tight_row):
        assert solve_qp(qp).status == "optimal"


def test_with_g_shares_all_but_the_linear_term():
    qp = active_row_qp()
    tilted = qp.with_g(np.array([-2.0, 0.0]))
    for name in ("Q", "a", "u"):
        assert getattr(tilted, name) is getattr(qp, name)
    np.testing.assert_array_equal(qp.g, -np.ones(2))
    fresh = box_qp(np.eye(2), np.array([-2.0, 0.0]), a=np.array([1.0, 1.0]), u=1.0)
    for start in (None, np.array([0.25, 0.25])):
        assert_same_solution(solve_qp(tilted, start=start), solve_qp(fresh, start=start))
    with pytest.raises(ValueError, match="n entries"):
        qp.with_g(np.zeros(3))


def test_validation_rejects_bad_data():
    with pytest.raises(ValueError, match="symmetric"):
        QpProblem(Q=np.array([[1.0, 0.5], [0.0, 1.0]]), g=np.zeros(2), a=np.ones(2), u=1.0)
    for a in (np.ones(3), np.ones(1), np.ones((1, 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match="a must have n entries"):
            QpProblem(Q=np.eye(2), g=np.zeros(2), a=a, u=1.0)


def test_symmetry_is_checked_to_1e_12():
    box_qp(np.array([[1.0, 1e-12], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="symmetric"):
        box_qp(np.array([[1.0, 2e-12], [0.0, 1.0]]), np.zeros(2))


def test_indefinite_matrix_is_rejected_loudly():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        box_qp(np.diag([1.0, -1.0]), np.zeros(2))


def test_each_qp_is_checked_convex_once_when_built(monkeypatch):
    # A homotopy's QPs share one Q: with_g copies skip the check, and
    # solve_qp makes none, so AD-SBQP factors each Q it builds once.
    checked, built, solved = [], [], []
    check_psd, post_init = qp_mod._check_psd, QpProblem.__post_init__

    def counted_post_init(qp):
        built.append(qp)
        post_init(qp)

    def counted_solve(*args, **kwargs):
        solved.append(args)
        return solve_qp(*args, **kwargs)

    monkeypatch.setattr(qp_mod, "_check_psd", lambda Q: checked.append(Q) or check_psd(Q))
    monkeypatch.setattr(QpProblem, "__post_init__", counted_post_init)
    monkeypatch.setattr(bqp, "solve_qp", counted_solve)
    for seed in range(4):
        solve(build_esr_problem(ScenarioConfig(n_tx=16, n_users=16, seed=seed, r_th_mode="fraction",
                                               r_th_value=0.5, noise_n0b=3e-14)))
    assert 0 < len(checked) == len(built) < len(solved)


def test_equalities_of_scale_one_preserved_with_jitter():
    sol = solve_qp(singular_qp())
    assert sol.status == "optimal"
    assert sol.kkt_residual <= 1e-8


def test_a_singular_free_block_goes_to_the_interior_point():
    # Q is PSD and singular, so LU finds the free block of an interior start
    # singular: the active set gives no answer and the interior point does.
    qp = QpProblem(Q=np.array([[1.0, 1.0], [1.0, 1.0]]), g=np.array([-2.0, -0.5]), a=np.ones(2), u=1.5)
    start = np.array([0.25, 0.25])
    assert qp_mod._takes_active_set(qp, start, 1e-10)
    assert qp_mod._active_set(qp, start, 1e-10) is None
    sol = solve_qp(qp, start=start)
    assert sol.path == "interior_point" and sol.status == "optimal"
    np.testing.assert_allclose(sol.x_star, [1.0, 0.0], atol=1e-8)


def test_a_singular_normal_matrix_raises_at_once(monkeypatch):
    # The bound rows give C full column rank, so the normal matrix
    # Q + C' diag(z/s) C of a box QP is positive definite in exact
    # arithmetic; here its factor fails as potrf fails on a singular one.
    # solve_qp raises in its first iteration, after factoring the normal
    # matrix once (Q was factored when qp was built); solve_bqp reports
    # that as "qp_failed".
    qp = interior_qp()
    factored = []

    def failing(a):
        factored.append(a)
        return None

    monkeypatch.setattr(qp_mod, "_cho_factor", failing)
    with pytest.raises(np.linalg.LinAlgError):
        solve_qp(qp)
    assert len(factored) == 1 and factored[0].shape == qp.Q.shape


# Every problem above, by the name the reference test reports.
PROBLEMS = {
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
        mt = 1 + 2 * qp.n
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
    # round, at the tolerance the homotopy gives it, solved by the interior
    # point (no start) and from the start the homotopy gives it (the
    # active set): the same status and objective, and the same point once
    # bqp._snap_boolean has rounded it (bit for bit where it snaps to
    # {0,1}, within its 1e-6 reach where it leaves a fractional point alone).
    calls = []

    def recorded(qp, tol=1e-10, start=None):
        calls.append((qp, tol, start))
        return solve_qp(qp, tol=tol, start=start)

    monkeypatch.setattr(bqp, "solve_qp", recorded)
    for seed in range(4):
        cfg = ScenarioConfig(n_tx=16, n_users=16, seed=seed, r_th_mode="fraction",
                             r_th_value=0.5, noise_n0b=3e-14)
        solve(build_esr_problem(cfg))
    assert {tol > 1e-10 for _, tol, _ in calls} == {False, True}

    def snaps_alike(qp, tol, got, want):
        """Whether the answers snap to a Boolean point, which must be the same."""
        assert_agrees(qp, got, want, tol)
        x_got, x_want = bqp._snap_boolean(qp, got.x_star), bqp._snap_boolean(qp, want.x_star)
        boolean = np.array_equal(x_got, np.round(x_got))
        assert boolean == np.array_equal(x_want, np.round(x_want))
        if boolean:
            assert x_got.tobytes() == x_want.tobytes()
        else:
            np.testing.assert_allclose(x_got, x_want, rtol=0, atol=1e-6)
        return boolean

    snapped = 0
    for qp, tol, start in calls:
        want = solve_qp_reference(qp, tol=tol)
        snapped += snaps_alike(qp, tol, solve_qp(qp, tol=tol), want)
        from_start = solve_qp(qp, tol=tol, start=start)
        assert from_start.path == "active_set"
        snaps_alike(qp, tol, from_start, want)
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
    return box_qp(np.eye(2), np.zeros(2), a=np.array([1e200, 1e200]), u=1e200)


def non_finite_rhs():
    return box_qp(np.eye(2), np.array([np.nan, 0.0]), a=np.ones(2), u=1.0)


@pytest.mark.parametrize("make", [non_finite_q, overflowing_normal_matrix, non_finite_rhs])
def test_non_finite_newton_system_raises_value_error(make):
    for solve_fn in (solve_qp, solve_qp_reference):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
            solve_fn(make())


def _unit_floats(shape):
    return arrays(np.float64, shape, elements=st.floats(-1.0, 1.0, allow_nan=False))


@st.composite
def convex_box_qps(draw):
    """Random convex QPs over [0, 1]^n with a row that holds with a margin
    at the box center, so every draw is feasible with an interior."""
    n = draw(st.integers(1, 8))
    B = draw(_unit_floats((n, n)))
    g = 10.0 * draw(_unit_floats(n))
    a = draw(_unit_floats(n))
    margin = draw(st.floats(0.1, 2.0))
    return box_qp(B @ B.T + np.eye(n), g, a, a @ np.full(n, 0.5) + margin)


@settings(max_examples=200, deadline=None, database=None, print_blob=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(convex_box_qps())
def check_random_convex_box_qp(qp):
    sol = solve_qp(qp)
    # What solve_qp's docstring guarantees: "optimal" means kkt_residual <= tol at the returned point, and the
    # reported residual is kkt_residual's.
    assert sol.status == "optimal"
    assert sol.kkt_residual == kkt_residual(qp, sol) <= 1e-10


def test_random_convex_box_qps_are_solved():
    t0 = time.perf_counter()
    check_random_convex_box_qp()
    assert time.perf_counter() - t0 < 20.0


@st.composite
def one_row_box_qps(draw):
    """Random convex QPs over [0, 1]^n with one row of scale >= 0.1, and a
    start in the box that meets the row with slack (it may sit on bounds)."""
    n = draw(st.integers(1, 8))
    B = draw(_unit_floats((n, n)))
    g = 10.0 * draw(_unit_floats(n))
    a = draw(_unit_floats(n).filter(lambda a: np.abs(a).max() >= 0.1))
    start = draw(arrays(np.float64, n, elements=st.floats(0.0, 1.0)))
    slack = draw(st.floats(1e-6, 2.0))
    return box_qp(B @ B.T + np.eye(n), g, a, a @ start + slack), start


ACTIVE_SET_PATHS = []  # the path of each check_active_set_from_a_start draw


@settings(max_examples=200, deadline=None, database=None, print_blob=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(one_row_box_qps())
def check_active_set_from_a_start(case):
    qp, start = case
    sol = solve_qp(qp, start=start)
    # The certificate: "optimal" with every multiplier >= 0 and
    # kkt_residual <= tol, at an objective the interior point agrees with.
    assert sol.status == "optimal"
    assert sol.kkt_residual == kkt_residual(qp, sol) <= 1e-10
    assert sol.dual_row >= 0.0
    for duals in (sol.duals_lower, sol.duals_upper):
        assert (duals >= 0.0).all()
    assert_agrees(qp, sol, solve_qp(qp))
    ACTIVE_SET_PATHS.append(sol.path)


def test_active_set_answers_are_certified():
    # A draw whose certificate fails (about 1 in 5,000: a row with entries
    # 1e6 times apart) goes to the interior point; nearly all are served.
    t0 = time.perf_counter()
    ACTIVE_SET_PATHS.clear()
    check_active_set_from_a_start()
    assert ACTIVE_SET_PATHS.count("active_set") >= 0.9 * len(ACTIVE_SET_PATHS) > 0
    assert time.perf_counter() - t0 < 20.0


def assert_same_solution(got, want):
    """Every field of two QpSolutions, bit for bit."""
    for name in ("x_star", "duals_lower", "duals_upper"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert np.float64(got.dual_row).tobytes() == np.float64(want.dual_row).tobytes()
    assert (got.status, got.iterations, got.path) == (want.status, want.iterations, want.path)
    assert np.float64(got.kkt_residual).tobytes() == np.float64(want.kkt_residual).tobytes()


def first_call_fails(monkeypatch):
    """Make the first _residual call (the active set's certificate) fail."""
    calls, residual = [], qp_mod._residual

    def failing_once(*args):
        calls.append(None)
        return np.inf if len(calls) == 1 else residual(*args)

    monkeypatch.setattr(qp_mod, "_residual", failing_once)
    return calls


@pytest.mark.parametrize("case", ["no_start", "infeasible_start", "row_below_tolerance", "certificate_fails"])
def test_each_fallback_returns_the_interior_point_result(monkeypatch, case):
    # The QP below is one the active set certifies from x0 (first assert);
    # each case breaks one condition of the routing rule or the certificate.
    qp, x0 = active_row_qp(), np.array([0.25, 0.25])
    assert solve_qp(qp, start=x0).path == "active_set"
    start = {"no_start": None, "infeasible_start": np.array([0.75, 0.75])}.get(case, x0)
    if case == "row_below_tolerance":
        qp = box_qp(qp.Q, qp.g, a=1e-10 * qp.a, u=1e-10 * qp.u)
    want = solve_qp(qp)
    assert want.path == "interior_point"
    calls = first_call_fails(monkeypatch) if case == "certificate_fails" else []
    assert_same_solution(solve_qp(qp, start=start), want)
    if case == "certificate_fails":
        assert len(calls) == 2  # the failed certificate, then the interior point's check
