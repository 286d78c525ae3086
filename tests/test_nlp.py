from dataclasses import replace

import numpy as np
import pytest

from adsbqp.nlp import (
    InfeasibleProblemError,
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


def box_only_problem():
    return NlpProblem(
        n=2,
        objective=lambda z: float((z[0] - 0.3) ** 2 + (z[1] + 2.0) ** 2),
        gradient=lambda z: np.array([2.0 * (z[0] - 0.3), 2.0 * (z[1] + 2.0)]),
        hessian=lambda z: 2.0 * np.eye(2),
        lower=np.zeros(2),
        upper=np.ones(2),
    )


def test_box_only_problem_minimizes_inside():
    sol = solve_barrier(box_only_problem())
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.z_star, [0.3, 0.0], atol=1e-6)


def convex_qp():
    rng = np.random.default_rng(1)
    n = 4
    B = rng.normal(size=(n, n)) / np.sqrt(n)
    Q = B @ B.T + np.eye(n)
    g = rng.normal(size=n)
    return QpProblem(Q=Q, g=g, A=np.zeros((0, n)), u=np.zeros(0), lower=0.0, upper=1.0)


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
    with pytest.raises(ValueError):
        NlpProblem(
            n=1,
            objective=lambda z: 0.0,
            gradient=lambda z: np.zeros(1),
            hessian=lambda z: np.zeros((1, 1)),
            lower=np.zeros(1),
            upper=np.ones(1),
            m=1,
        )


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
    "box_only": (box_only_problem, None),
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
    make, z0 = SOLVES[name]
    prob = make()
    seen = []

    def objective(z):
        seen.append(np.asarray(z, dtype=float).tobytes())
        return prob.objective(z)

    sol = solve_barrier(replace(prob, objective=objective), z0=z0)
    assert sol.status == "optimal" and len(seen) > 1
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("bad", ["hessian", "gradient"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_newton_system_raises_value_error(bad, value):
    prob = box_only_problem()
    broken = {
        "hessian": lambda z: np.array([[value, 0.0], [0.0, 2.0]]),
        "gradient": lambda z: np.array([value, 2.0 * (z[1] + 2.0)]),
    }
    prob = replace(prob, **{bad: broken[bad]})
    for solve in (solve_barrier, solve_barrier_reference):
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve(prob)
