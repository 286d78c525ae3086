import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from adsbqp import nlp
from adsbqp.nlp import (
    InfeasibleProblemError,
    _interior_midpoint,
    NlpProblem,
    find_strictly_feasible,
    solve_barrier,
)
from adsbqp.qp import QpProblem, solve_qp
from _oracles import solve_barrier_reference


def linear_objective_problem():
    # min z s.t. z >= 1 inside [-10, 10]: optimum at the constraint.
    return NlpProblem(
        n=1,
        objective=lambda z: float(z[0]),
        gradient=lambda z: np.array([1.0]),
        hessian=lambda z: np.zeros((1, 1)),
        lower=np.array([-10.0]),
        upper=np.array([10.0]),
        m=1,
        constraints=lambda z: np.array([1.0 - z[0]]),
        constraints_jac=lambda z: np.array([[-1.0]]),
        constraints_hess=None,
    )


def test_active_constraint_and_dual_recovery():
    sol = solve_barrier(linear_objective_problem())
    assert sol.status == "optimal"
    assert sol.z_star[0] == pytest.approx(1.0, abs=1e-6)
    assert sol.duals[0] == pytest.approx(1.0, rel=1e-5)


def loose_row(n):
    """The one constraint sum(z) <= 100, far from the optimum of every problem
    that takes it, so that its barrier term barely moves the central path."""
    return dict(m=1, constraints=lambda z: np.array([z.sum() - 100.0]),
                constraints_jac=lambda z: np.ones((1, n)))


def convex_qp():
    rng = np.random.default_rng(1)
    n = 4
    B = rng.normal(size=(n, n)) / np.sqrt(n)
    Q = B @ B.T + np.eye(n)
    g = rng.normal(size=n)
    return QpProblem(Q=Q, g=g, a=np.ones(n), u=100.0)  # loose_row(n)


def convex_qp_problem():
    qp = convex_qp()
    Q, g, n = qp.Q, qp.g, qp.n
    return NlpProblem(
        n=n,
        objective=lambda z: float(0.5 * z @ Q @ z + g @ z),
        gradient=lambda z: Q @ z + g,
        hessian=lambda z: Q,
        lower=np.zeros(n),
        upper=np.ones(n),
        **loose_row(n),
    )


def test_agrees_with_qp_solver_on_a_convex_qp():
    qp = convex_qp()
    ref = solve_qp(qp)
    sol = solve_barrier(convex_qp_problem())
    assert sol.status == "optimal"
    assert qp.objective(sol.z_star) == pytest.approx(qp.objective(ref.x_star), abs=1e-7)


def concave_problem():
    # Concave objective over the box: minima sit at the box corners.
    return NlpProblem(
        n=2,
        objective=lambda z: float(-(z - 0.4) @ (z - 0.4)),
        gradient=lambda z: -2.0 * (z - 0.4),
        hessian=lambda z: -2.0 * np.eye(2),
        lower=np.zeros(2),
        upper=np.ones(2),
        **loose_row(2),
    )


def test_nonconvex_objective_is_handled_by_the_eigenvalue_shift():
    sol = solve_barrier(concave_problem(), z0=np.array([0.7, 0.2]))
    assert sol.status == "optimal"
    # Global corner: both coordinates at 1 (distance 0.6 from 0.4 beats 0.4).
    np.testing.assert_allclose(sol.z_star, [1.0, 1.0], atol=1e-6)


def test_find_strictly_feasible_prefers_given_point():
    nlp = linear_objective_problem()
    z0 = np.array([3.0])
    np.testing.assert_array_equal(find_strictly_feasible(nlp, z0), z0)


def test_find_strictly_feasible_phase_one_search():
    # Box midpoint (0) violates z >= 1, so phase 1 has to move.
    nlp = linear_objective_problem()
    z = find_strictly_feasible(nlp)
    assert z[0] > 1.0


def test_find_strictly_feasible_raises_on_empty_interior():
    nlp = NlpProblem(
        n=1,
        objective=lambda z: float(z[0]),
        gradient=lambda z: np.array([1.0]),
        hessian=lambda z: np.zeros((1, 1)),
        lower=np.array([0.0]),
        upper=np.array([1.0]),
        m=1,
        constraints=lambda z: np.array([2.0 - z[0]]),  # needs z >= 2
        constraints_jac=lambda z: np.array([[-1.0]]),
        constraints_hess=None,
    )
    with pytest.raises(InfeasibleProblemError) as err:
        find_strictly_feasible(nlp)
    assert err.value.violation is not None and err.value.violation > 0


def test_constraint_callbacks_are_required_when_m_positive():
    with pytest.raises(TypeError):
        NlpProblem(
            n=1,
            objective=lambda z: 0.0,
            gradient=lambda z: np.zeros(1),
            hessian=lambda z: np.zeros((1, 1)),
            lower=np.zeros(1),
            upper=np.ones(1),
            m=1,
        )


def test_a_problem_without_constraints_is_rejected():
    with pytest.raises(ValueError, match="m >= 1"):
        replace(linear_objective_problem(), m=0)


def disk_problem():
    # min x + y s.t. x^2 + y^2 <= 1: optimum at (-1/sqrt2, -1/sqrt2).
    return NlpProblem(
        n=2,
        objective=lambda z: float(z.sum()),
        gradient=lambda z: np.ones(2),
        hessian=lambda z: np.zeros((2, 2)),
        lower=np.full(2, -2.0),
        upper=np.full(2, 2.0),
        m=1,
        constraints=lambda z: np.array([z @ z - 1.0]),
        constraints_jac=lambda z: 2.0 * z[None, :],
        constraints_hess=lambda z, w: 2.0 * w[0] * np.eye(2),
    )


def test_curved_constraint_with_hessian_callback():
    sol = solve_barrier(disk_problem(), z0=np.zeros(2))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.z_star, -np.ones(2) / np.sqrt(2.0), atol=1e-5)


def one_sided_problem():
    # No lower bounds at all and one infinite upper bound: the barrier has
    # an empty group and a masked one.  Optimum at (1, 1).
    return NlpProblem(
        n=2,
        objective=lambda z: float((z[0] - 2.0) ** 2 + (z[1] - 1.0) ** 2),
        gradient=lambda z: 2.0 * (z - np.array([2.0, 1.0])),
        hessian=lambda z: 2.0 * np.eye(2),
        lower=np.full(2, -np.inf),
        upper=np.array([1.0, np.inf]),
        **loose_row(2),
    )


def test_one_sided_bounds():
    sol = solve_barrier(one_sided_problem(), z0=np.zeros(2))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.z_star, [1.0, 1.0], atol=1e-6)


# Every problem above with the start its test gives it; "linear" runs phase 1
# from the box midpoint, which violates its constraint.
SOLVES = {
    "linear": (linear_objective_problem, None),
    "one_sided": (one_sided_problem, np.zeros(2)),
    "one_sided_midpoint": (one_sided_problem, None),
    "convex_qp": (convex_qp_problem, None),
    "concave": (concave_problem, np.array([0.7, 0.2])),
    "disk": (disk_problem, np.zeros(2)),
}


def assert_same_solution(got, want):
    assert got.z_star.tobytes() == want.z_star.tobytes()
    assert got.duals.tobytes() == want.duals.tobytes()
    assert (got.status, got.iterations) == (want.status, want.iterations)
    assert got.mu_final == want.mu_final
    assert got.kkt_residual == want.kkt_residual


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_solve_matches_the_reference_loop_bit_for_bit(name):
    make, z0 = SOLVES[name]
    assert_same_solution(solve_barrier(make(), z0=z0), solve_barrier_reference(make(), z0=z0))


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_no_point_is_evaluated_twice(name):
    # Neither the objective nor its gradient, the KKT residual at the final
    # iterate included.
    make, z0 = SOLVES[name]
    prob = make()
    seen = {"objective": [], "gradient": []}

    def recording(key):
        callback = getattr(prob, key)

        def recorded(z):
            seen[key].append(np.asarray(z, dtype=float).tobytes())
            return callback(z)

        return recorded

    sol = solve_barrier(replace(prob, **{key: recording(key) for key in seen}), z0=z0)
    assert sol.status == "optimal" and len(seen["objective"]) > 1
    for points in seen.values():
        assert len(set(points)) == len(points)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_midpoint_start_with_an_unbounded_coordinate_warns_nothing():
    # One coordinate has no finite bound at all, so the box midpoint must not
    # add -inf to inf.
    sol = solve_barrier(one_sided_problem())
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.z_star, [1.0, 1.0], atol=1e-6)


@pytest.mark.parametrize("bad", ["hessian", "gradient"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_newton_system_raises_value_error(bad, value):
    prob = disk_problem()
    broken = {
        "hessian": lambda z: np.array([[value, 0.0], [0.0, 0.0]]),
        "gradient": lambda z: np.array([value, 1.0]),
    }
    prob = replace(prob, **{bad: broken[bad]})
    for solve in (solve_barrier, solve_barrier_reference):
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve(prob)


@st.composite
def barrier_problems(draw):
    """A 1- to 3-variable quadratic over a box, one-sided or free bounds, with
    a linear constraint or a ball, and a start that may need phase 1:
    the default (the midpoint), any point, or a strictly feasible one.

    Every problem has a strictly feasible point p with a margin.  The
    objective is convex unless the box is finite; there it may be concave,
    as a penalized switch NLP is, so that the Newton system needs its
    shift.  A linear constraint's row is bounded below over the bounds, so
    that phase 1 is bounded too.
    """
    n = draw(st.integers(1, 3))

    def vector(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    kinds = np.array(["box"] * n)  # as in every switch NLP, half of the time
    if draw(st.booleans()):
        kinds = np.array(draw(st.lists(st.sampled_from(["box", "lower", "upper", "free"]),
                                       min_size=n, max_size=n)))
    p = vector(-2.0, 2.0)
    lower = np.where((kinds == "box") | (kinds == "lower"), p - vector(0.05, 3.0), -np.inf)
    upper = np.where((kinds == "box") | (kinds == "upper"), p + vector(0.05, 3.0), np.inf)
    B = vector(-1.0, 1.0)[:, None] * vector(-1.0, 1.0) + np.diag(vector(-1.0, 1.0))
    Q = 0.5 * (B + B.T) - draw(st.floats(0.0, 4.0)) * np.eye(n)  # a penalty's concavity
    if (kinds != "box").any() or draw(st.booleans()):
        Q = B @ B.T + 0.1 * np.eye(n)
    g = vector(-3.0, 3.0)
    problem = dict(n=n, objective=lambda z: float(0.5 * z @ Q @ z + g @ z), gradient=lambda z: Q @ z + g,
                   hessian=lambda z: Q, lower=lower, upper=upper)
    margin = draw(st.floats(0.05, 1.0))
    constraint = draw(st.sampled_from(["linear", "ball", "ball off the midpoint"]))
    if constraint == "linear":
        a = vector(-2.0, 2.0)
        a = np.where(kinds == "lower", np.abs(a), np.where(kinds == "upper", -np.abs(a), a))
        a[kinds == "free"] = 0.0
        b = float(a @ p) + margin
        problem.update(m=1, constraints=lambda z: np.array([a @ z - b]), constraints_jac=lambda z: a[None, :])
    else:  # a ball
        c = p + vector(-2.0, 2.0)
        away = p - _interior_midpoint(lower, upper)
        if constraint == "ball off the midpoint" and away @ away >= 0.1:
            # Centred beyond p, away from the midpoint, and too small to
            # hold it: a start from the midpoint runs phase 1.
            c = p + draw(st.floats(0.5, 2.0)) * away
            margin = min(margin, 0.05)
        r2 = float((p - c) @ (p - c)) + margin
        problem.update(m=1, constraints=lambda z: np.array([(z - c) @ (z - c) - r2]),
                       constraints_jac=lambda z: 2.0 * (z - c)[None, :],
                       constraints_hess=lambda z, w: 2.0 * w[0] * np.eye(n))
    z0 = draw(st.sampled_from([None, "p", "anywhere"]))
    if z0 == "p":
        z0 = p
    elif z0 == "anywhere":
        z0 = p + vector(-3.0, 3.0)
    return NlpProblem(**problem), z0


def test_random_solves_match_the_reference_loop_bit_for_bit():
    # Every solve, and every phase-1 solve it makes, returns the reference
    # loop's bytes on box, one-sided and free bounds, with a linear
    # constraint or a curved one, from starts inside and outside, and from
    # the full barrier schedule, a shortened one or its last stage alone.
    phase_one = []  # one entry per example: whether its solve ran phase 1
    solve_barrier_lean = nlp.solve_barrier

    @settings(max_examples=60, deadline=None, database=None, print_blob=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(barrier_problems(), st.sampled_from([nlp.MU0, 1e-4, nlp.MU_MIN]))
    @example((linear_objective_problem(), None), nlp.MU0)  # runs phase 1 from the midpoint
    def check(case, mu0):
        prob, z0 = case
        solves = []

        def recorded(prob, z0=None, mu0=nlp.MU0):
            sol = solve_barrier_lean(prob, z0=z0, mu0=mu0)
            solves.append((prob, z0, mu0, sol))
            return sol

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nlp, "solve_barrier", recorded)
            nlp.solve_barrier(prob, z0=z0, mu0=mu0)
        phase_one.append(len(solves) > 1)
        for got_prob, got_z0, got_mu0, got in solves:
            assert_same_solution(got, solve_barrier_reference(got_prob, z0=got_z0, mu0=got_mu0))

    t0 = time.perf_counter()
    check()
    assert time.perf_counter() - t0 < 5.0
    assert any(phase_one)
