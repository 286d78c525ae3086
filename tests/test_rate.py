import math

import numpy as np
import pytest

from adsbqp.channel import ScenarioConfig, generate_channel
from adsbqp.rate import (
    build_esr_problem,
    economic_objective,
    grad_rate_wrt_power,
    grad_rate_wrt_switch,
    hess_rate_wrt_switch,
    sum_rate,
    water_filling,
)
from _oracles import (
    fd_gradient,
    fd_jacobian,
    full_activation_rate,
    snr_all,
    uniform_power,
    water_filling_by_bisection,
)


def small_problem(seed=0, n=4, k=3):
    cfg = ScenarioConfig(n_tx=n, n_users=k, seed=seed, r_th_mode="fraction", r_th_value=0.5)
    return build_esr_problem(cfg)


def random_point(prob, rng):
    P = rng.uniform(0.01, 1.0, size=(prob.n_tx, prob.n_users))
    x = rng.uniform(0.1, 0.9, size=prob.n_tx)
    return P, x


def test_sum_rate_composes_per_user_terms():
    prob = small_problem(seed=1)
    rng = np.random.default_rng(1)
    P, x = random_point(prob, rng)
    total = sum(
        prob.bandwidth * np.log2(1.0 + snr_all(P, x, prob)[j])
        for j in range(prob.n_users)
    )
    assert sum_rate(P, x, prob) == pytest.approx(total, rel=1e-12)


def test_snr_matches_direct_formula():
    prob = small_problem(seed=2)
    rng = np.random.default_rng(2)
    P, x = random_point(prob, rng)
    gains = prob.gains
    for j in range(prob.n_users):
        expected = (P[:, j] @ x) * (gains[:, j] @ x ** 2) / prob.sigma
        assert snr_all(P, x, prob)[j] == pytest.approx(expected, rel=1e-12)


def test_rate_is_monotone_in_power_and_switch():
    prob = small_problem(seed=3)
    rng = np.random.default_rng(3)
    P, x = random_point(prob, rng)
    base = sum_rate(P, x, prob)
    assert sum_rate(2.0 * P, x, prob) > base
    assert sum_rate(P, np.minimum(x * 1.5, 1.0), prob) > base
    assert sum_rate(0.0 * P, x, prob) == 0.0


def test_full_activation_rate_agrees_with_sum_rate():
    prob = small_problem(seed=4)
    P = uniform_power(prob)
    ones = np.ones(prob.n_tx)
    assert full_activation_rate(P, prob) == pytest.approx(
        sum_rate(P, ones, prob), rel=1e-12
    )


def test_economic_objective_accounting():
    prob = small_problem(seed=5)
    rng = np.random.default_rng(5)
    P, _ = random_point(prob, rng)
    ones = np.ones(prob.n_tx)
    expected = P.sum() + prob.n_tx * prob.cfg.p_rf
    assert economic_objective(P, ones, prob) == pytest.approx(expected, rel=1e-12)
    half = np.zeros(prob.n_tx)
    half[0] = 1.0
    assert economic_objective(P, half, prob) == pytest.approx(
        P[0].sum() + prob.cfg.p_rf, rel=1e-12
    )


def test_uniform_power_row_sums_hit_the_cap():
    prob = small_problem(seed=6)
    P = uniform_power(prob)
    np.testing.assert_allclose(P.sum(axis=1), prob.cfg.p_th, rtol=1e-12)
    P_half = uniform_power(prob, scale=0.5)
    np.testing.assert_allclose(P_half.sum(axis=1), 0.5 * prob.cfg.p_th, rtol=1e-12)


def test_grad_rate_wrt_power_matches_finite_differences():
    prob = small_problem(seed=7)
    rng = np.random.default_rng(7)
    P, x = random_point(prob, rng)
    shape = P.shape

    def f(vec):
        return sum_rate(vec.reshape(shape), x, prob)

    fd = fd_gradient(f, P.ravel(), h=1e-6).reshape(shape)
    analytic = grad_rate_wrt_power(P, x, prob)
    np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-10)


def test_grad_rate_wrt_switch_matches_finite_differences():
    prob = small_problem(seed=8)
    rng = np.random.default_rng(8)
    P, x = random_point(prob, rng)
    fd = fd_gradient(lambda v: sum_rate(P, v, prob), x, h=1e-6)
    analytic = grad_rate_wrt_switch(P, x, prob)
    np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-10)


def test_hess_rate_wrt_switch_matches_jacobian_of_gradient():
    prob = small_problem(seed=9)
    rng = np.random.default_rng(9)
    P, x = random_point(prob, rng)
    fd = fd_jacobian(lambda v: grad_rate_wrt_switch(P, v, prob), x, h=1e-6)
    analytic = hess_rate_wrt_switch(P, x, prob)
    np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)


def test_hess_rate_wrt_switch_is_exactly_symmetric():
    prob = small_problem(seed=10)
    rng = np.random.default_rng(10)
    P, x = random_point(prob, rng)
    H = hess_rate_wrt_switch(P, x, prob)
    np.testing.assert_array_equal(H, H.T)


def test_switch_reading_uses_squared_entries_off_boolean_points():
    # The column-norm factor uses x^2; scaling a fractional x changes the
    # rate through both the linear and the squared terms.
    prob = small_problem(seed=11)
    P = uniform_power(prob)
    x = np.full(prob.n_tx, 0.5)
    gains = prob.gains
    a = x @ P
    b = (x ** 2) @ gains
    expected = prob.bandwidth * np.sum(np.log1p(a * b / prob.sigma)) / np.log(2.0)
    assert sum_rate(P, x, prob) == pytest.approx(expected, rel=1e-12)


def test_boolean_point_squared_and_linear_readings_coincide():
    prob = small_problem(seed=12)
    rng = np.random.default_rng(12)
    P, _ = random_point(prob, rng)
    x = np.array([1.0, 0.0, 1.0, 1.0])
    a = x @ P
    b = x @ prob.gains  # linear reading; equals the x^2 reading on {0,1}
    expected = prob.bandwidth * np.sum(np.log1p(a * b / prob.sigma)) / np.log(2.0)
    assert sum_rate(P, x, prob) == pytest.approx(expected, rel=1e-12)


def test_build_esr_problem_fraction_resolution():
    cfg = ScenarioConfig(n_tx=4, n_users=3, seed=1, r_th_mode="fraction", r_th_value=0.25)
    prob = build_esr_problem(cfg)
    assert prob.r_th == pytest.approx(0.25 * prob.full_capacity, rel=1e-12)
    assert prob.feasible_at_full_activation


def test_rate_reachable_is_the_water_filling_bound():
    # One user, g = 4: 2 bits need a = (2^2 - 1) / 4 = 0.75.
    assert water_filling(np.array([4.0]), 0.75 + 1e-9, 2.0, 1.0)[0][0]
    assert not water_filling(np.array([4.0]), 0.75 - 1e-9, 2.0, 1.0)[0][0]
    assert water_filling(np.array([4.0]), 1.0, 2.0, 1.0)[1][0] == pytest.approx(0.75, rel=1e-14)
    # Gains (4, 1, 0), 4 bits: the level nu = 2 serves both users with
    # positive gain, a = (1.75, 1), rate log2(8) + log2(2); least total 2.75.
    g = np.array([4.0, 1.0, 0.0])
    assert water_filling(g, 2.75 + 1e-9, 4.0, 1.0)[0][0]
    assert not water_filling(g, 2.75 - 1e-9, 4.0, 1.0)[0][0]
    assert water_filling(g, 3.0, 4.0, 1.0)[1][0] == pytest.approx(2.75, rel=1e-14)
    # At low SNR the level nu ~1e10 dwarfs the least total; one user is
    # served and needs (2^1e-9 - 1) / g_1 ~ 6.93, to all its digits.
    g = np.array([1e-10, 0.5e-10])
    want = math.expm1(1e-9 * math.log(2.0)) / 1e-10
    assert water_filling(g, 10.0, 1e-9, 1.0)[1][0] == pytest.approx(want, rel=1e-14)
    assert water_filling(g, want * (1.0 + 1e-12), 1e-9, 1.0)[0][0]
    assert not water_filling(g, want * (1.0 - 1e-12), 1e-9, 1.0)[0][0]
    # A threshold far out of reach is decided without overflow.
    with np.errstate(all="raise"):
        assert not water_filling(g, 1.0, 1e6, 1.0)[0][0]
    assert not water_filling(np.zeros(3), 1.0, 1.0, 1.0)[0][0]


def test_water_filling_rows_match_the_one_row_test_and_bisection():
    # Rows with zero-gain users, all-zero rows and single users: each row's
    # feasibility is the one-row call's, and its least total is the one found
    # by bisection on the water level, below the budget exactly when feasible.
    rng = np.random.default_rng(7)
    for k in (1, 6):
        G = 10.0 ** rng.uniform(-2.0, 2.0, size=(300, k))
        G[rng.random(G.shape) < 0.3] = 0.0
        G[:3] = 0.0
        budget = 10.0 ** rng.uniform(-1.0, 2.0, size=300)
        feasible, least = water_filling(G, budget, 5.0, 1.0)[:2]
        assert 0 < feasible.sum() < 300
        for row, b, f, t in zip(G, budget, feasible, least):
            assert f == water_filling(row, b, 5.0, 1.0)[0][0]
            ref = water_filling_by_bisection(row, 5.0, 1.0)
            if f:
                assert t == pytest.approx(ref, rel=1e-9) and t < b
            else:
                assert t == np.inf and ref >= b * (1.0 - 1e-9)


def test_build_esr_problem_rejects_mismatched_channel():
    cfg = ScenarioConfig(n_tx=4, n_users=3, seed=1)
    other = generate_channel(ScenarioConfig(n_tx=5, n_users=3, seed=1))
    with pytest.raises(ValueError):
        build_esr_problem(cfg, channel=other)


def test_default_scenario_is_flagged_infeasible():
    # The stock 64x64 constants put the absolute threshold far above the
    # achievable capacity; the instance must say so up front.
    prob = build_esr_problem(ScenarioConfig())
    assert not prob.feasible_at_full_activation
    assert prob.full_capacity < prob.r_th
