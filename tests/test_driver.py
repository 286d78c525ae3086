import itertools
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adsbqp import driver
from adsbqp.baselines import enumerate_selections
from adsbqp import rate as rate_mod
from adsbqp.channel import ChannelMatrix, ScenarioConfig
from adsbqp.driver import (
    HESSIAN_SHIFT_FLOOR,
    NLP_TOL,
    Ad1InfeasibleError,
    AdConfig,
    _complete_boolean,
    ad1,
    build_ad2_subproblem,
    full_activation_allocation,
    solve,
)
from adsbqp.rate import (
    BOOLEAN_TOL,
    build_esr_problem,
    economic_objective,
    grad_rate_wrt_switch,
    selection_bounds,
    sum_rate,
)
from _oracles import barrier_ad1, cheapest_exhaustive


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
    # The rate at the even split of the budget: log2(1 + 1).
    assert err.value.achievable_rate == pytest.approx(1.0, rel=1e-12)


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


def test_ad1_feasibility_is_exact_at_low_snr():
    # At low SNR the rate at an even power split falls well short of the
    # water-filled rate, so a test at even power would wrongly reject
    # masks 244 and 248.  ad1 must decide each mask as the barrier over all
    # powers does, and agree with it on power within the barrier's
    # duality gap, one mu per inequality constraint.
    prob = scaled_problem(seed=8, n=8, k=4, noise=1e-10)
    mu = 0.1 * NLP_TOL
    feasible = set()
    for mask in (236, 240, 242, 244, 248):
        x = np.array([(mask >> i) & 1 for i in range(prob.n_tx)], dtype=float)
        try:
            P, _, _ = ad1(prob, x)
        except Ad1InfeasibleError:
            with pytest.raises(Ad1InfeasibleError):
                barrier_ad1(prob, x)
            continue
        feasible.add(mask)
        P_ref, _ = barrier_ad1(prob, x)
        n_active = int(x.sum())
        gap = (n_active * prob.n_users + n_active + 1) * mu
        assert float(x @ P.sum(axis=1)) == pytest.approx(float(x @ P_ref.sum(axis=1)), abs=gap)
    assert {244, 248} <= feasible


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
    # mu = NLP_TOL / 10.  Each condition is checked to 1e-9 relative to its
    # largest term: the rate slack mu / lambda is ~1e-8 of r_th, so the
    # rate itself is known to ~1e-8 of the slack, not to 1e-9 of mu.
    mu = 0.1 * NLP_TOL
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
        P, lam, _ = ad1(prob, x)
        active = x > BOOLEAN_TOL
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
    qp, offset = build_ad2_subproblem(prob, P, x_bar, lam)
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
    # ad1 leaves rate slack, so x_bar strictly meets the linearized rate.
    assert float(qp.A[0] @ x_bar) < float(qp.u[0])


def test_build_ad2_subproblem_linearizes_the_rate_constraint():
    prob = scaled_problem(seed=6)
    x_bar = np.full(prob.n_tx, 0.8)
    P, lam, _ = ad1(prob, x_bar)
    qp, _ = build_ad2_subproblem(prob, P, x_bar, lam)
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
    qp, _ = build_ad2_subproblem(prob, P, x_bar, 0.0)
    np.testing.assert_allclose(qp.Q, HESSIAN_SHIFT_FLOOR * np.eye(prob.n_tx), atol=1e-20)


def test_build_ad2_subproblem_curvature_floor_holds():
    prob = scaled_problem(seed=8)
    x_bar = np.full(prob.n_tx, 0.6)
    P, lam, _ = ad1(prob, x_bar)
    qp, _ = build_ad2_subproblem(prob, P, x_bar, lam)
    min_eig = float(np.linalg.eigvalsh(qp.Q)[0])
    assert min_eig >= HESSIAN_SHIFT_FLOOR - 1e-12


def test_ad2_least_eigenvalue_equals_eigvalsh(monkeypatch):
    # build_ad2_subproblem calls LAPACK's syevr directly; on every AD2
    # curvature matrix of 16x16 seeds 0-3 it returns eigvalsh's bytes.
    matrices = []

    def recorded(a):
        matrices.append(a.copy())
        return least_eigenvalue(a)

    least_eigenvalue = driver._least_eigenvalue
    monkeypatch.setattr(driver, "_least_eigenvalue", recorded)
    for seed in range(4):
        solve(build_esr_problem(ScenarioConfig(n_tx=16, n_users=16, seed=seed, r_th_mode="fraction",
                                               r_th_value=0.5, noise_n0b=3e-14)))
    assert len(matrices) >= 8
    for a in matrices:
        want = scipy.linalg.eigvalsh(a, subset_by_index=(0, 0))[0]
        assert np.float64(least_eigenvalue(a)).tobytes() == want.tobytes()


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


def test_solve_reuses_the_last_power_solve_after_a_repeat(monkeypatch):
    # The loop ends when AD2 returns its start bit for bit, so the last AD1
    # already solved the power subproblem at the final switches.  On these
    # seeds no Boolean completion runs, and the all-on water-filling bound
    # exceeds the final objective, so the full-activation incumbent is not
    # solved either: one ad1 call per AD iteration and none after.
    calls = []

    def recorded(prob, x):
        calls.append(np.array(x))
        return ad1(prob, x)

    monkeypatch.setattr(driver, "ad1", recorded)
    for seed in (1, 2, 4):
        calls.clear()
        prob = scaled_problem(seed=seed)
        sol, trace = solve(prob)
        assert sol.status == "success" and trace.rows[-1].dx_norm == 0.0
        assert selection_bounds(np.ones((1, 8)), prob)[1][0] > sol.objective
        assert len(calls) == len(trace.rows)
        np.testing.assert_array_equal(calls[-1], sol.x_star)


def r_th_problem(seed, r_th_value):
    return build_esr_problem(ScenarioConfig(n_tx=8, n_users=8, seed=seed, r_th_mode="fraction",
                                            r_th_value=r_th_value, noise_n0b=3e-14))


def test_incumbent_still_wins_where_its_bound_allows(monkeypatch):
    # At r_th_value 0.9 the alternation ends on a costlier selection on
    # these seeds; the all-on bound does not exceed its objective, so the
    # incumbent's ad1 runs and all-on is returned.
    calls = []

    def recorded(prob, x):
        calls.append(np.array(x))
        return ad1(prob, x)

    monkeypatch.setattr(driver, "ad1", recorded)
    for seed in (0, 6):
        prob = r_th_problem(seed, 0.9)
        loop_only, _ = driver._ad_loop(prob, AdConfig(), driver._sbqp_ad2, "AD-SBQP")
        calls.clear()
        sol, _ = solve(prob)
        np.testing.assert_array_equal(calls[-1], np.ones(8))
        np.testing.assert_array_equal(sol.x_star, np.ones(8))
        assert sol.status == "success"
        assert sol.objective == full_activation_allocation(prob)[1] < loop_only.objective


def test_incumbent_is_not_solved_again_when_the_loop_ends_at_all_on(monkeypatch):
    # At r_th_value 0.9 the alternation itself ends at all-on on 8 of seeds
    # 0-9.  The incumbent would repeat the loop's ad1 call at x = 1 and tie
    # its objective, so solve returns the loop's solution with one ad1 call
    # there.
    calls = []

    def recorded(prob, x):
        calls.append(np.array(x))
        return ad1(prob, x)

    monkeypatch.setattr(driver, "ad1", recorded)
    ones = np.ones(8)
    ended_all_on = 0
    for seed in range(10):
        prob = r_th_problem(seed, 0.9)
        loop_only, _ = driver._ad_loop(prob, AdConfig(), driver._sbqp_ad2, "AD-SBQP")
        if not np.array_equal(loop_only.x_star, ones):
            continue
        ended_all_on += 1
        calls.clear()
        sol, _ = solve(prob)
        assert sum(np.array_equal(x, ones) for x in calls) == 1
        assert (sol.status, sol.iterations) == (loop_only.status, loop_only.iterations)
        for name in ("P_star", "x_star", "objective", "complementarity", "rate_residual",
                     "row_cap_residual"):
            assert np.asarray(getattr(sol, name)).tobytes() == np.asarray(getattr(loop_only, name)).tobytes()
        assert sol.objective == full_activation_allocation(prob)[1]
    assert ended_all_on == 8


def test_solve_matches_an_unpruned_incumbent(monkeypatch):
    # Answering the incumbent's bound query with -inf solves the incumbent
    # every time, as solve did before it consulted the bound; the outcome
    # must not change.
    bounds = selection_bounds

    def unpruned(X, prob):
        feasible, bound = bounds(X, prob)
        if X.shape[0] == 1 and (X == 1.0).all():
            bound = np.full(1, -np.inf)
        return feasible, bound

    for r_th_value in (0.5, 0.9):
        for seed in range(10):
            prob = r_th_problem(seed, r_th_value)
            got, got_trace = solve(prob)
            with monkeypatch.context() as patch:
                patch.setattr(rate_mod, "selection_bounds", unpruned)
                want, want_trace = solve(prob)
            assert (got.status, got.iterations) == (want.status, want.iterations)
            for name in ("P_star", "x_star", "objective", "complementarity", "rate_residual",
                         "row_cap_residual"):
                assert np.asarray(getattr(got, name)).tobytes() == np.asarray(getattr(want, name)).tobytes()
            assert [(r.objective, r.dx_norm, r.lambda_bar, r.ad2_status) for r in got_trace.rows] == [
                (r.objective, r.dx_norm, r.lambda_bar, r.ad2_status) for r in want_trace.rows
            ]


@st.composite
def fraction_scenarios(draw):
    """6x6 to 8x8 fraction-mode scenarios at any seed and rate fraction."""
    return build_esr_problem(ScenarioConfig(
        n_tx=draw(st.integers(6, 8)), n_users=draw(st.integers(6, 8)), seed=draw(st.integers(0, 2 ** 16)),
        r_th_mode="fraction", r_th_value=draw(st.floats(0.05, 0.95)), noise_n0b=3e-14))


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fraction_scenarios())
def check_sbqp_between_enumeration_and_full_activation(prob):
    sol, _ = solve(prob)
    report, _, _ = enumerate_selections(prob)
    assert sol.status == report.status == "success"
    assert sol.objective <= full_activation_allocation(prob)[1]
    assert sol.objective >= report.objective - 1e-9 * abs(report.objective)


def test_sbqp_is_never_worse_than_full_activation_nor_better_than_enumeration():
    # Guards the QP and the homotopy against selection drift on scenarios
    # no fixed seed list covers.
    t0 = time.perf_counter()
    check_sbqp_between_enumeration_and_full_activation()
    assert time.perf_counter() - t0 < 30.0


def test_boolean_completion_is_the_exhaustive_cheapest():
    # The bound-ordered search returns the completion that solving the power
    # subproblem of every completion, in bit order, would return.
    x = np.array([1.0, 0.5, 0.0, 0.3, 1.0, 0.7, 0.0, 0.5])
    frac = np.flatnonzero((x > 0.0) & (x < 1.0))
    for prob in [scaled_problem(seed=s) for s in range(3)] + [
        build_esr_problem(ScenarioConfig(n_tx=8, n_users=8, seed=0, r_th_mode="fraction",
                                         r_th_value=0.9, noise_n0b=3e-14))
    ]:
        completions = []
        for bits in range(2 ** frac.size):
            cand = np.round(x)
            cand[frac] = [(bits >> i) & 1 for i in range(frac.size)]
            completions.append(cand)
        _, want, _, _ = cheapest_exhaustive(prob, completions)
        got = _complete_boolean(prob, x)
        if want is None:
            assert got is None
        else:
            x_got, P_got, lam_got = got
            np.testing.assert_array_equal(x_got, want)
            P_want, lam_want, _ = ad1(prob, want)
            assert P_got.tobytes() == P_want.tobytes() and lam_got == lam_want


def test_the_next_ad_iteration_reuses_the_completion_power_solve(monkeypatch):
    # The Boolean completion solves the power subproblem at the selection it
    # returns; the AD iteration that starts there takes that solution
    # instead of calling ad1 again.  The completion fires on these seeds.
    events = []

    def recorded_ad1(prob, x):
        events.append(("ad1", np.asarray(x).tobytes()))
        return ad1(prob, x)

    def recorded_completion(prob, x):
        got = _complete_boolean(prob, x)
        if got is not None:
            events.append(("completion", got[0].tobytes()))
        return got

    monkeypatch.setattr(driver, "ad1", recorded_ad1)
    monkeypatch.setattr(driver, "_complete_boolean", recorded_completion)
    ones = np.ones(8).tobytes()
    completions = 0
    for seed in (0, 3, 6):
        events.clear()
        solve(scaled_problem(seed=seed))
        for i, (kind, x) in enumerate(events):
            if kind == "completion":
                completions += 1
                later = [e for e in events[i + 1:] if e == ("ad1", x)]
                # Only the full-activation incumbent may ask for all-on again.
                assert later == [] or (x == ones and later == [("ad1", ones)])
    assert completions > 0


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
        AdConfig(eps_comp=0.0)
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
