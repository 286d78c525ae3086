import itertools

import numpy as np
import pytest

from adsbqp import driver
from adsbqp.channel import ChannelMatrix, ScenarioConfig
from adsbqp.driver import (
    Ad1InfeasibleError,
    AdConfig,
    ad1,
    build_ad2_subproblem,
    full_activation_allocation,
    solve,
)
from adsbqp.rate import (
    build_esr_problem,
    economic_objective,
    grad_rate_wrt_switch,
    sum_rate,
    uniform_power,
)
from _oracles import barrier_ad1


def unit_channel_problem(r_th=1.0, p_th=2.0):
    """Single antenna, single user, |h|^2 = 1, noise 1: rate = log2(1 + p)."""
    channel = ChannelMatrix(
        entries=np.array([[1.0 + 0.0j]]),
        user_distances=np.array([1.0]),
        user_positions=np.array([[1.0, 0.0]]),
    )
    cfg = ScenarioConfig(
        n_tx=1,
        n_users=1,
        p_th=p_th,
        r_th_mode="absolute",
        r_th_value=r_th,
        seed=0,
    )
    return build_esr_problem(cfg, channel=channel)


def scaled_problem(seed=1, n=8, k=8, noise=3e-14):
    cfg = ScenarioConfig(
        n_tx=n, n_users=k, seed=seed, r_th_mode="fraction", r_th_value=0.5,
        noise_n0b=noise,
    )
    return build_esr_problem(cfg)


def test_ad1_single_user_analytic_power():
    # log2(1 + p) = 1 has the unique solution p = 1.
    prob = unit_channel_problem(r_th=1.0)
    P, lam, _ = ad1(prob, np.ones(1))
    assert P[0, 0] == pytest.approx(1.0, abs=1e-6)
    # Multiplier is the inverse rate slope at the optimum: ln2 * (1 + p).
    assert lam == pytest.approx(2.0 * np.log(2.0), rel=1e-4)


def test_ad1_vanishing_threshold_needs_vanishing_power():
    prob = unit_channel_problem(r_th=1e-9)
    P, _, _ = ad1(prob, np.ones(1))
    assert P[0, 0] <= 1e-6


def test_ad1_two_antennas_single_user_matches_analytic_total():
    # For one user the rate depends on P only through the received total
    # sum_i p_i; the optimal total is sigma * (2^r - 1) / b.
    cfg = ScenarioConfig(
        n_tx=2, n_users=1, seed=4, r_th_mode="fraction", r_th_value=0.5,
        noise_n0b=1e-10,
    )
    prob = build_esr_problem(cfg)
    x = np.ones(2)
    P, _, _ = ad1(prob, x)
    b = float((x @ prob.gains)[0])
    expected_total = prob.sigma * (2.0 ** prob.r_th - 1.0) / b
    assert P.sum() == pytest.approx(expected_total, rel=1e-4)


def test_ad1_respects_row_caps_and_rate():
    prob = scaled_problem(seed=2)
    x = np.ones(prob.n_tx)
    P, lam, _ = ad1(prob, x)
    assert np.all(P >= -1e-12)
    assert np.all(P.sum(axis=1) <= prob.cfg.p_th + 1e-8)
    assert sum_rate(P, x, prob) >= prob.r_th - 1e-6
    assert lam > 0.0


def test_ad1_zero_rows_for_switched_off_antennas():
    prob = scaled_problem(seed=3)
    x = np.ones(prob.n_tx)
    x[2] = 0.0
    P, _, _ = ad1(prob, x)
    np.testing.assert_array_equal(P[2], np.zeros(prob.n_users))


def test_ad1_raises_when_threshold_unreachable():
    prob = unit_channel_problem(r_th=10.0, p_th=1.0)  # needs p = 1023
    with pytest.raises(Ad1InfeasibleError) as err:
        ad1(prob, np.ones(1))
    assert err.value.achievable_rate < 10.0


def test_ad1_failed_phase_one_raises_typed_error(monkeypatch):
    # A start that is not strictly feasible sends the barrier solver to its
    # phase 1; when that finds no point either, the error is still typed.
    prob = unit_channel_problem(r_th=10.0, p_th=1.0)
    monkeypatch.setattr(driver, "_uniform_start", lambda prob, x: np.zeros((1, 1)))
    with pytest.raises(Ad1InfeasibleError) as err:
        ad1(prob, np.ones(1))
    assert err.value.achievable_rate == 0.0


def test_ad1_matches_barrier_over_all_powers():
    # The solve over the K per-user totals must give the optimum of the
    # power subproblem posed over every p_ij, and decide feasibility alike.
    for n, k in ((8, 8), (16, 4)):
        prob = scaled_problem(seed=n, n=n, k=k)
        rng = np.random.default_rng(n)
        boolean = (rng.uniform(size=n) < 0.7).astype(float)
        near = np.abs(boolean - rng.uniform(0.0, 1e-6, size=n))
        lone = np.zeros(n)
        lone[0] = 1.0
        cases = (np.ones(n), boolean, rng.uniform(0.2, 1.0, size=n), near, lone)
        feasible = 0
        for x in cases:
            try:
                P, lam, _ = ad1(prob, x)
            except Ad1InfeasibleError:
                with pytest.raises(Ad1InfeasibleError):
                    barrier_ad1(prob, x)
                continue
            feasible += 1
            P_ref, lam_ref = barrier_ad1(prob, x)
            power, power_ref = float(x @ P.sum(axis=1)), float(x @ P_ref.sum(axis=1))
            assert power == pytest.approx(power_ref, rel=1e-9)
            assert lam == pytest.approx(lam_ref, rel=1e-3)
            assert np.all(P >= 0.0)
            assert np.all(P.sum(axis=1) <= prob.cfg.p_th + 1e-8)
            assert sum_rate(P, x, prob) >= prob.r_th
        assert 0 < feasible < len(cases)


def fewest_feasible_antennas(prob):
    """A Boolean x with the fewest antennas on that still meets the rate."""
    n = prob.n_tx
    for m in range(1, n + 1):
        for chosen in itertools.combinations(range(n), m):
            x = np.zeros(n)
            x[list(chosen)] = 1.0
            try:
                ad1(prob, x)
            except Ad1InfeasibleError:
                continue
            return x
    raise AssertionError("no feasible selection")


def test_ad1_is_barrier_central_point():
    # ad1 returns the central point of the log barrier over the totals at
    # mu = nlp_tol / 10.  Each condition is checked to 1e-9 relative to its
    # largest term: the rate slack mu / lambda is ~1e-8 of r_th, so the
    # rate itself is known to ~1e-8 of the slack, not to 1e-9 of mu.
    cfg = AdConfig()
    mu = 0.1 * cfg.nlp_tol
    n = 8
    prob = scaled_problem(seed=11, n=n, k=n)
    g = prob.gains / prob.sigma
    c = prob.bandwidth / np.log(2.0)
    rng = np.random.default_rng(11)
    boolean = (rng.uniform(size=n) < 0.7).astype(float)
    near = np.abs(boolean - rng.uniform(0.0, 1e-6, size=n))
    cases = (boolean, rng.uniform(0.2, 1.0, size=n), near, fewest_feasible_antennas(prob))

    def balanced(*terms):
        return abs(sum(terms)) <= 1e-9 * max(abs(t) for t in terms)

    for x in cases:
        P, lam, _ = ad1(prob, x, cfg)
        active = x > cfg.boolean_tol
        a = x @ P
        g_x = (x ** 2) @ g
        budget_slack = prob.cfg.p_th * x[active].sum() - a.sum()
        assert np.all(a > 0.0) and budget_slack > 0.0
        # lambda * (rate - r_th) = mu; the budget condition
        # eta * (budget - sum a) = mu sets the budget multiplier.
        rate = sum_rate(P, x, prob)
        assert balanced(lam * rate, -lam * prob.r_th, -mu)
        eta = mu / budget_slack
        # Per user, the barrier gradient in a_j vanishes.
        for j in range(n):
            assert balanced(1.0 + eta, -mu / a[j], -lam * c * g_x[j] / (1.0 + g_x[j] * a[j]))


def test_build_ad2_subproblem_matches_taylor_model():
    prob = scaled_problem(seed=5)
    x_bar = np.full(prob.n_tx, 0.7)
    P, lam, _ = ad1(prob, x_bar)
    qp, offset, relaxation = build_ad2_subproblem(prob, P, x_bar, lam)
    f_lin = P.sum(axis=1) + prob.cfg.p_rf
    f_center = economic_objective(P, x_bar, prob)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(0.0, 1.0, size=prob.n_tx)
        d = x - x_bar
        expected = f_center + float(f_lin @ d) + 0.5 * float(d @ qp.Q @ d)
        assert qp.objective(x) + offset == pytest.approx(expected, abs=1e-10)
    # Center reproduces the economic objective exactly.
    assert qp.objective(x_bar) + offset == pytest.approx(f_center, abs=1e-12)
    assert relaxation == 0.0


def test_build_ad2_subproblem_linearizes_the_rate_constraint():
    prob = scaled_problem(seed=6)
    x_bar = np.full(prob.n_tx, 0.8)
    P, lam, _ = ad1(prob, x_bar)
    qp, _, _ = build_ad2_subproblem(prob, P, x_bar, lam)
    c_bar = prob.r_th - sum_rate(P, x_bar, prob)
    grad_c = -grad_rate_wrt_switch(P, x_bar, prob)
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.uniform(0.0, 1.0, size=prob.n_tx)
        linearized = float(grad_c @ (x - x_bar)) + c_bar
        assert float(qp.A[0] @ x - qp.u[0]) == pytest.approx(linearized, abs=1e-9)


def test_build_ad2_subproblem_zero_multiplier_gives_floor_curvature():
    prob = scaled_problem(seed=7)
    x_bar = np.full(prob.n_tx, 0.7)
    P, _, _ = ad1(prob, x_bar)
    qp, _, _ = build_ad2_subproblem(prob, P, x_bar, 0.0, shift_floor=1e-8)
    np.testing.assert_allclose(qp.Q, 1e-8 * np.eye(prob.n_tx), atol=1e-20)


def test_build_ad2_subproblem_curvature_floor_holds():
    prob = scaled_problem(seed=8)
    x_bar = np.full(prob.n_tx, 0.6)
    P, lam, _ = ad1(prob, x_bar)
    qp, _, _ = build_ad2_subproblem(prob, P, x_bar, lam, shift_floor=1e-8)
    min_eig = float(np.linalg.eigvalsh(qp.Q)[0])
    assert min_eig >= 1e-8 - 1e-12


def test_single_antenna_scenario_keeps_it_on():
    prob = unit_channel_problem(r_th=1.0)
    sol, trace = solve(prob)
    assert sol.status == "success"
    np.testing.assert_array_equal(sol.x_star, np.ones(1))
    assert sol.P_star[0, 0] == pytest.approx(1.0, abs=1e-5)
    assert trace.method == "AD-SBQP"


def test_end_to_end_scaled_scenario_properties():
    prob = scaled_problem(seed=1)
    sol, trace = solve(prob)
    assert sol.status == "success"
    assert sol.iterations <= 10
    assert abs(sol.complementarity) <= 1e-12
    assert sol.rate_residual >= -1e-6
    assert sol.row_cap_residual <= 1e-8
    assert len(trace.rows) == sol.iterations
    _, obj_full = full_activation_allocation(prob)
    assert sol.objective < obj_full


def test_solution_never_beats_enumeration_nor_loses_to_full_activation():
    for seed in (0, 2, 3):
        prob = scaled_problem(seed=seed)
        sol, _ = solve(prob)
        _, obj_full = full_activation_allocation(prob)
        assert sol.objective <= obj_full + 1e-12


def test_infeasible_scenario_is_reported_without_iterating():
    prob = build_esr_problem(ScenarioConfig())  # stock 64x64, infeasible
    sol, trace = solve(prob)
    assert sol.status == "infeasible"
    assert sol.iterations == 0
    assert trace.rows == []


def test_termination_norm_decreases_at_convergence():
    prob = scaled_problem(seed=4)
    sol, trace = solve(prob)
    assert sol.status == "success"
    if len(trace.rows) >= 2:
        last = np.hypot(trace.rows[-1].dp_norm, trace.rows[-1].dx_norm)
        prev = np.hypot(trace.rows[-2].dp_norm, trace.rows[-2].dx_norm)
        assert last <= prev + 1e-12


def test_ad_config_validation():
    with pytest.raises(ValueError):
        AdConfig(eps_term=0.0)
    with pytest.raises(ValueError):
        AdConfig(max_ad_iter=0)


def test_full_activation_allocation_matches_ad1():
    prob = scaled_problem(seed=9)
    P_ref, _, _ = ad1(prob, np.ones(prob.n_tx))
    P, obj = full_activation_allocation(prob)
    np.testing.assert_allclose(P, P_ref, atol=1e-10)
    assert obj == pytest.approx(
        economic_objective(P, np.ones(prob.n_tx), prob), rel=1e-12
    )
