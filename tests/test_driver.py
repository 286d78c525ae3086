import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adsbqp import bqp, driver, nlp
from adsbqp import qp as qp_mod
from adsbqp.baselines import enumerate_selections, solve_ad_nspen, solve_ad_spen
from adsbqp import rate as rate_mod
from adsbqp.bqp import SNAP_REACH, solve_bqp
from adsbqp.channel import ChannelMatrix, ScenarioConfig
from adsbqp.driver import (
    HESSIAN_SHIFT_FLOOR,
    Ad1InfeasibleError,
    _complete_boolean,
    ad1,
    build_ad2_subproblem,
    cheapest_selection,
    solve,
)
from adsbqp.qp import solve_qp
from adsbqp.rate import (
    BOOLEAN_TOL,
    build_esr_problem,
    economic_objective,
    grad_rate_wrt_switch,
    selection_bounds,
    sum_rate,
)
from _oracles import barrier_ad1, cheapest_exhaustive, full_activation_allocation


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
    P, lam = ad1(prob, np.ones(1))
    assert P[0, 0] == pytest.approx(1.0, abs=1e-6)
    # Multiplier is the inverse rate slope at the optimum: ln2 * (1 + p).
    assert lam == pytest.approx(2.0 * np.log(2.0), rel=1e-4)


def test_ad1_vanishing_threshold_needs_vanishing_power():
    prob = unit_channel_problem(r_th=1e-9)
    P, _ = ad1(prob, np.ones(1))
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
    P, _ = ad1(prob, x)
    b = float((x @ prob.gains)[0])
    expected_total = prob.sigma * (2.0 ** prob.r_th - 1.0) / b
    assert P.sum() == pytest.approx(expected_total, rel=1e-4)


def test_ad1_respects_row_caps_and_rate():
    prob = scaled_problem(seed=2)
    x = np.ones(prob.n_tx)
    P, lam = ad1(prob, x)
    assert np.all(P >= -1e-12)
    assert np.all(P.sum(axis=1) <= prob.cfg.p_th + 1e-8)
    assert sum_rate(P, x, prob) >= prob.r_th - 1e-6
    assert lam > 0.0


def test_ad1_zero_rows_for_switched_off_antennas():
    prob = scaled_problem(seed=3)
    x = np.ones(prob.n_tx)
    x[2] = 0.0
    P, _ = ad1(prob, x)
    np.testing.assert_array_equal(P[2], np.zeros(prob.n_users))


def test_ad1_raises_when_threshold_unreachable():
    prob = unit_channel_problem(r_th=10.0, p_th=1.0)  # needs p = 1023
    with pytest.raises(Ad1InfeasibleError):
        ad1(prob, np.ones(1))


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
                P, lam = ad1(prob, x)
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
    mu = nlp.MU_MIN
    feasible = set()
    for mask in (236, 240, 242, 244, 248):
        x = np.array([(mask >> i) & 1 for i in range(prob.n_tx)], dtype=float)
        try:
            P, _ = ad1(prob, x)
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


def check_water_filling_kkt(prob, x, P, lam):
    """ad1's totals water-fill to the level lambda B / ln2 within the budget.

    Each served user sits at the level and each unserved one has its floor
    1/g_j at or above it; served totals are checked to 1e-9 relative to the
    largest term.  Returns the number of unserved users.
    """
    level = lam * prob.bandwidth / np.log(2.0)
    a = x @ P
    g = (x ** 2) @ prob.gains / prob.sigma
    served = a > 0.0
    for j in np.flatnonzero(served):
        assert abs(a[j] + 1.0 / g[j] - level) <= 1e-9 * max(a[j], 1.0 / g[j], level)
    assert np.all(a[~served] == 0.0) and np.all(1.0 / g[~served] >= level)
    assert a.sum() <= prob.cfg.p_th * x[x > BOOLEAN_TOL].sum()
    return int((~served).sum())


def test_ad1_is_the_raised_water_filling_solution():
    # ad1 water-fills the per-user totals at a level raised just enough that
    # lambda * (rate - r_th) = mu = nlp.MU_MIN.  That holds to 1e-9 of
    # its largest term: the rate slack mu / lambda is ~1e-8 of r_th, so the
    # rate itself is known to ~1e-8 of the slack, not to 1e-9 of mu.
    mu = nlp.MU_MIN
    n = 8
    prob = scaled_problem(seed=11, n=n, k=n)
    rng = np.random.default_rng(11)
    boolean = (rng.uniform(size=n) < 0.7).astype(float)
    near = np.abs(boolean - rng.uniform(0.0, 1e-6, size=n))
    fewest = fewest_feasible_antennas(prob)
    for x in (boolean, rng.uniform(0.2, 1.0, size=n), near, fewest):
        P, lam = ad1(prob, x)
        check_water_filling_kkt(prob, x, P, lam)
        rate = sum_rate(P, x, prob)
        assert abs(lam * rate - lam * prob.r_th - mu) <= 1e-9 * lam * rate

    # A tenth of the threshold leaves users unserved; a budget 1e-13 above
    # the least total leaves no room for the full slack, so the raised level
    # stops where the totals spend the budget and the rate clears r_th by
    # less than mu / lambda.
    r_th = prob.r_th / 10.0
    g = fewest @ prob.gains / prob.sigma
    least = rate_mod.water_filling(g, np.inf, r_th, prob.bandwidth)[1][0]
    tight = build_esr_problem(ScenarioConfig(
        n_tx=n, n_users=n, seed=11, r_th_mode="absolute", r_th_value=r_th, noise_n0b=3e-14,
        p_th=least * (1.0 + 1e-13) / fewest.sum()))
    P, lam = ad1(tight, fewest)
    assert check_water_filling_kkt(tight, fewest, P, lam) > 0
    rate = sum_rate(P, fewest, tight)
    assert rate >= r_th and lam * (rate - r_th) < 0.5 * mu


def test_ad1_keeps_its_rate_slack_at_low_snr():
    # At noise 1e-3 and 1 (ScenarioConfig's default) one user is served,
    # at an SNR of 2e-7 or less, and the level nu is 6e6 to 9e9 times its
    # total, so nu - 1/g_j would lose the total's digits.  The slack
    # mu / lambda survives, to 1e-6 of mu.
    mu = nlp.MU_MIN
    for noise in (1e-3, 1.0):
        for seed in range(3):
            prob = scaled_problem(seed=seed, n=4, k=4, noise=noise)
            x = np.ones(4)
            P, lam = ad1(prob, x)
            assert abs(lam * (sum_rate(P, x, prob) - prob.r_th) - mu) <= 1e-6 * mu


@st.composite
def small_selections(draw):
    """2x2 to 6x6 fraction-mode scenarios with a Boolean or fractional x_bar."""
    n = draw(st.integers(2, 6))
    prob = build_esr_problem(ScenarioConfig(
        n_tx=n, n_users=draw(st.integers(2, 6)), seed=draw(st.integers(0, 2 ** 16)),
        r_th_mode="fraction", r_th_value=draw(st.floats(0.05, 0.95)), noise_n0b=3e-14))
    entries = st.sampled_from([0.0, 1.0]) if draw(st.booleans()) else st.floats(0.05, 1.0)
    return prob, np.array(draw(st.lists(entries, min_size=n, max_size=n)))


@settings(max_examples=100, deadline=None, database=None, print_blob=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_selections())
def check_ad1_against_the_barrier_over_all_powers(case):
    prob, x = case
    try:
        P, _ = ad1(prob, x)
    except Ad1InfeasibleError:
        with pytest.raises(Ad1InfeasibleError):
            barrier_ad1(prob, x)
        return
    P_ref, lam_ref = barrier_ad1(prob, x)
    # ad1 is no costlier than the barrier's point, and that point lies within
    # its duality gap of the optimum: its rate multiplier times its rate
    # slack plus one mu per other inequality.  The 1e-9 relative of
    # test_ad1_matches_barrier_over_all_powers does not hold on every draw:
    # at small totals, or where the barrier ends with a wide rate slack.
    power, power_ref = float(x @ P.sum(axis=1)), float(x @ P_ref.sum(axis=1))
    n_active = int((x > BOOLEAN_TOL).sum())
    gap = lam_ref * (sum_rate(P_ref, x, prob) - prob.r_th) + n_active * (prob.n_users + 1) * nlp.MU_MIN
    assert power <= power_ref * (1.0 + 1e-9) and power_ref - power <= gap
    assert np.all(P >= 0.0) and np.all(P.sum(axis=1) <= prob.cfg.p_th)
    assert sum_rate(P, x, prob) >= prob.r_th


def test_ad1_matches_the_barrier_over_all_powers_on_random_selections():
    t0 = time.perf_counter()
    check_ad1_against_the_barrier_over_all_powers()
    assert time.perf_counter() - t0 < 20.0


def test_build_ad2_subproblem_matches_taylor_model():
    prob = scaled_problem(seed=5)
    x_bar = np.full(prob.n_tx, 0.7)
    P, lam = ad1(prob, x_bar)
    qp = build_ad2_subproblem(prob, P, x_bar, lam)
    f_lin = P.sum(axis=1) + prob.cfg.p_rf
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(0.0, 1.0, size=prob.n_tx)
        d = x - x_bar
        expected = float(f_lin @ d) + 0.5 * float(d @ qp.Q @ d)
        assert qp.objective(x) - qp.objective(x_bar) == pytest.approx(expected, abs=1e-10)
    # ad1 leaves rate slack, so x_bar strictly meets the linearized rate.
    assert float(qp.a @ x_bar) < qp.u


def test_build_ad2_subproblem_linearizes_the_rate_constraint():
    prob = scaled_problem(seed=6)
    x_bar = np.full(prob.n_tx, 0.8)
    P, lam = ad1(prob, x_bar)
    qp = build_ad2_subproblem(prob, P, x_bar, lam)
    c_bar = prob.r_th - sum_rate(P, x_bar, prob)
    grad_c = -grad_rate_wrt_switch(P, x_bar, prob)
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.uniform(0.0, 1.0, size=prob.n_tx)
        linearized = float(grad_c @ (x - x_bar)) + c_bar
        assert float(qp.a @ x - qp.u) == pytest.approx(linearized, abs=1e-9)


def test_build_ad2_subproblem_zero_multiplier_gives_floor_curvature():
    prob = scaled_problem(seed=7)
    x_bar = np.full(prob.n_tx, 0.7)
    P, _ = ad1(prob, x_bar)
    qp = build_ad2_subproblem(prob, P, x_bar, 0.0)
    np.testing.assert_allclose(qp.Q, HESSIAN_SHIFT_FLOOR * np.eye(prob.n_tx), atol=1e-20)


def test_build_ad2_subproblem_curvature_floor_holds():
    prob = scaled_problem(seed=8)
    x_bar = np.full(prob.n_tx, 0.6)
    P, lam = ad1(prob, x_bar)
    qp = build_ad2_subproblem(prob, P, x_bar, lam)
    min_eig = float(np.linalg.eigvalsh(qp.Q)[0])
    assert min_eig >= HESSIAN_SHIFT_FLOOR - 1e-12


def test_ad2_least_eigenvalue_agrees_with_scipy_within_8_ulps(monkeypatch):
    # build_ad2_subproblem takes the least eigenvalue from numpy's eigvalsh;
    # on every AD2 curvature matrix of 16x16 seeds 0-7 it agrees with
    # scipy's subset eigenvalue (syevr) within 8 ulps of ||a||_2.  The
    # confirming AD2 step builds no QP, so each solve adds one matrix.
    matrices = []

    def recorded(a):
        matrices.append(a.copy())
        return least_eigenvalue(a)

    least_eigenvalue = driver._least_eigenvalue
    monkeypatch.setattr(driver, "_least_eigenvalue", recorded)
    for seed in range(8):
        solve(build_esr_problem(ScenarioConfig(n_tx=16, n_users=16, seed=seed, r_th_mode="fraction",
                                               r_th_value=0.5, noise_n0b=3e-14)))
    assert len(matrices) >= 8
    for a in matrices:
        want = scipy.linalg.eigvalsh(a, subset_by_index=(0, 0))[0]
        assert abs(least_eigenvalue(a) - want) <= 8 * np.spacing(np.linalg.norm(a, 2))


def test_certified_starts_are_the_ones_solve_bqp_snaps_back(monkeypatch):
    # Every Boolean start the certificate accepts on these seeds (one per
    # solve, the confirming AD2 step) is also what solve_bqp returns on the
    # QP the certificate skips.
    t0 = time.perf_counter()
    accepted = []
    returns_start = driver._returns_start

    def recorded(prob, P, x):
        certified = returns_start(prob, P, x)
        if certified:
            accepted.append((prob, P, x.copy()))
        return certified

    monkeypatch.setattr(driver, "_returns_start", recorded)
    for n, seeds in ((8, range(20)), (16, range(10))):
        for seed in seeds:
            solve(scaled_problem(seed=seed, n=n, k=n))
    assert len(accepted) == 30
    for prob, P, x in accepted:
        P_ad1, lam = ad1(prob, x)
        assert P.tobytes() == P_ad1.tobytes()
        res = solve_bqp(build_ad2_subproblem(prob, P, x, lam))
        assert res.status == "success" and res.x_star.tobytes() == x.tobytes()
    assert time.perf_counter() - t0 < 10.0


def recorded_qp_solves(monkeypatch):
    """A list that gains "qp" at each qp.solve_qp call bqp makes."""
    events = []

    def counted(*args, **kwargs):
        events.append("qp")
        return solve_qp(*args, **kwargs)

    monkeypatch.setattr(bqp, "solve_qp", counted)
    return events


def ad_rows(trace):
    """Every field of every AD row but the wall times, exactly."""
    return repr([{k: v for k, v in vars(r).items() if k not in ("ad1_time", "ad2_time")}
                 for r in trace])


def test_solve_is_byte_identical_without_the_certificate(monkeypatch):
    t0 = time.perf_counter()
    calls = recorded_qp_solves(monkeypatch)
    for n, seeds in ((8, range(10)), (16, range(4))):
        for seed in seeds:
            prob = scaled_problem(seed=seed, n=n, k=n)
            calls.clear()
            got, got_trace = solve(prob)
            certified_calls = len(calls)
            with monkeypatch.context() as patch:
                patch.setattr(driver, "_step_bound", lambda *args: math.inf)
                calls.clear()
                want, want_trace = solve(prob)
            assert certified_calls < len(calls)
            assert (got.status, got.iterations) == (want.status, want.iterations)
            for name in ("P_star", "x_star", "objective", "complementarity", "rate_residual",
                         "row_cap_residual"):
                assert np.asarray(getattr(got, name)).tobytes() == np.asarray(getattr(want, name)).tobytes()
            assert ad_rows(got_trace) == ad_rows(want_trace)
    assert time.perf_counter() - t0 < 10.0


def solution_bytes(sol):
    """Every field of a Solution, exactly."""
    return [np.asarray(getattr(sol, f.name)).tobytes() for f in dataclasses.fields(sol)]


def test_the_active_set_serves_the_benchmark_and_moves_no_selection(monkeypatch):
    # At the benchmark's scenario (16x16, noise 3e-14) every AD2 QP is
    # solved by qp's active set, and its exact answers leave every Solution
    # as the interior point alone makes it; at low SNR, where the routing
    # rule sends the rate row to the interior point, too.  Without that
    # rule, seed 2 at noise 1e-3 and r_th_value 0.1 ends at another selection.
    t0 = time.perf_counter()
    paths = []

    def recorded(*args, **kwargs):
        sol = solve_qp(*args, **kwargs)
        paths.append(sol.path)
        return sol

    monkeypatch.setattr(bqp, "solve_qp", recorded)
    cases = [(16, 3e-14, 0.5, seed) for seed in range(4)]
    cases += [(8, noise, r_th, seed) for noise in (1e-6, 1e-3, 1.0) for r_th in (0.1, 0.5) for seed in range(3)]
    for n, noise, r_th, seed in cases:
        prob = build_esr_problem(ScenarioConfig(n_tx=n, n_users=n, seed=seed, r_th_mode="fraction",
                                                r_th_value=r_th, noise_n0b=noise))
        paths.clear()
        got = solve(prob)[0]
        if noise == 3e-14:
            assert paths and set(paths) == {"active_set"}
        with monkeypatch.context() as patch:
            patch.setattr(qp_mod, "_takes_active_set", lambda *args: False)
            want = solve(prob)[0]
        assert solution_bytes(got) == solution_bytes(want)
    assert time.perf_counter() - t0 < 5.0


def test_first_rounds_start_next_to_their_answer(monkeypatch):
    # The first homotopy round's QP (rho = 1) has its answer next to a
    # vertex.  Started at the rounding of x_hat, the active set reaches it in
    # a few iterations, where from x_hat it fixes one bound per iteration
    # (10-58 at these sizes); the start changes no Solution.
    t0 = time.perf_counter()
    sizes = [(16, seed) for seed in range(4)] + [(n, seed) for n in (32, 64) for seed in range(3)]
    cases = [(n, 3e-14, 0.5, seed) for n, seed in sizes]
    cases += [(8, noise, r_th, seed) for noise in (3e-14, 1e-6, 1e-3, 1.0) for r_th in (0.1, 0.5)
              for seed in range(3)]
    for n, noise, r_th, seed in cases:
        prob = build_esr_problem(ScenarioConfig(n_tx=n, n_users=n, seed=seed, r_th_mode="fraction",
                                                r_th_value=r_th, noise_n0b=noise))
        got, rows = solve(prob)
        if n >= 16:
            first = [it for row in rows for it in row.ad2_trace if it.rho == bqp.RHO0]
            assert first and all(it.qp_path == "active_set" and it.qp_iterations <= 6 for it in first)
        with monkeypatch.context() as patch:
            patch.setattr(bqp, "_rounded_start", lambda qp, x_hat: x_hat)
            want = solve(prob)[0]
        assert solution_bytes(got) == solution_bytes(want)
    assert time.perf_counter() - t0 < 2.0


def test_uncertified_starts_go_to_the_qp(monkeypatch):
    t0 = time.perf_counter()
    calls = recorded_qp_solves(monkeypatch)

    def qp_calls(prob, P, x, lam):
        calls.clear()
        driver._sbqp_ad2(prob, P, x, lam)
        return len(calls)

    prob = scaled_problem(seed=1)
    x = solve(prob)[0].x_star
    on = x == 1.0
    P, lam = ad1(prob, x)
    assert qp_calls(prob, P, x, lam) == 0  # the certified confirming step
    # A fractional start.
    x_frac = np.where(on, 0.9, 0.1)
    P_frac, lam_frac = ad1(prob, x_frac)
    assert qp_calls(prob, P_frac, x_frac, lam_frac) > 0
    # An on switch whose rate gradient is 0 admits no multiplier.
    grad = rate_mod.grad_rate_wrt_switch

    def flat(P, x, prob, weights=None):
        g = grad(P, x, prob, weights)
        g[np.flatnonzero(x == 1.0)[0]] = 0.0
        return g

    with monkeypatch.context() as patch:
        patch.setattr(rate_mod, "grad_rate_wrt_switch", flat)
        assert driver._step_bound(*driver._linear_model(prob, P, x)[:3], on) == math.inf
        assert qp_calls(prob, P, x, lam) > 0
    # A lower threshold widens the slack, and with it the bound, which is
    # linear in the slack: here to SNAP_REACH, twice what the certificate
    # accepts.
    f, a, slack, _ = driver._linear_model(prob, P, x)
    per_slack = driver._step_bound(f, a, slack, on) / slack
    wide = dataclasses.replace(prob, r_th=prob.r_th - (SNAP_REACH / per_slack - slack))
    bound = driver._step_bound(*driver._linear_model(wide, P, x)[:3], on)
    assert bound == pytest.approx(SNAP_REACH, rel=1e-6)
    assert qp_calls(wide, P, x, lam) > 0
    assert time.perf_counter() - t0 < 5.0


def test_the_last_ad_iteration_solves_no_qp(monkeypatch):
    t0 = time.perf_counter()
    events = recorded_qp_solves(monkeypatch)
    sbqp_ad2 = driver._sbqp_ad2

    def marked(*args):
        events.append("ad2")
        return sbqp_ad2(*args)

    monkeypatch.setattr(driver, "_sbqp_ad2", marked)
    for seed in range(5):
        events.clear()
        sol, trace = solve(scaled_problem(seed=seed, n=16, k=16))
        assert sol.status == "success" and events.count("ad2") == len(trace) >= 2
        last = len(events) - 1 - events[::-1].index("ad2")
        assert "qp" in events[:last] and "qp" not in events[last:]
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize("error", [scipy.linalg.LinAlgError("the normal matrix is not positive definite"),
                                   ValueError("array must not contain infs or NaNs")])
def test_a_qp_that_raises_ends_ad2_as_qp_failed(monkeypatch, error):
    def raising(*args, **kwargs):
        raise error

    monkeypatch.setattr(bqp, "solve_qp", raising)
    prob = scaled_problem(seed=1)
    sol, trace = solve(prob)
    assert isinstance(sol, driver.Solution)
    assert trace[-1].ad2_status == "qp_failed"
    # AD2 keeps its fractional start, so the loop stops after one iteration.
    assert len(trace) == 1 and trace[0].dx_norm == 0.0


@pytest.mark.parametrize("n, noise, r_th_value", [(4, 1.0, 0.5), (8, 3e-14, 0.99999)])
def test_sbqp_matches_enumeration_where_a_fallback_decides(n, noise, r_th_value):
    # At noise 1 the linearized rate row has coefficients ~1e-10 and the
    # global search QP ends "stalled" at a fractional point, which AD2
    # completes.  At r_th_value 0.99999 no fractional scale of the uniform
    # start is feasible, so the loop starts at all-on.
    prob = build_esr_problem(ScenarioConfig(n_tx=n, n_users=n, seed=0, r_th_mode="fraction",
                                            r_th_value=r_th_value, noise_n0b=noise))
    sol, _ = solve(prob)
    report, _, _ = enumerate_selections(prob)
    assert sol.status == report.status == "success"
    assert sol.objective == pytest.approx(report.objective, rel=1e-9)


def test_every_ad2_success_is_boolean(monkeypatch):
    # _ad_loop reports "success" on the last AD2 status alone: an AD2
    # "success" has phi(x) <= bqp.EPS_COMP on [0, 1]^n, or is snapped,
    # certified or completed, so every coordinate lies within 2 * EPS_COMP
    # of {0, 1}.  The r_th_value 0.9 and noise 1e-10 cases start from a
    # scaled switch vector, and on some of them the incumbent wins.
    t0 = time.perf_counter()
    ad2_results = []
    sbqp_ad2 = driver._sbqp_ad2

    def recorded(*args):
        res = sbqp_ad2(*args)
        ad2_results.append(res)
        return res

    def boolean(x):
        return np.max(np.minimum(np.abs(x), np.abs(1.0 - x))) <= 1e-9

    monkeypatch.setattr(driver, "_sbqp_ad2", recorded)
    problems = ([scaled_problem(seed=s) for s in range(20)]
                + [r_th_problem(s, 0.9) for s in range(10)]
                + [scaled_problem(seed=s, noise=1e-10) for s in range(20)])
    for prob in problems:
        sol, _ = solve(prob)
        assert sol.status == "success" and boolean(sol.x_star)
    successes = [res for res in ad2_results if res.status == "success"]
    assert len(successes) >= len(problems)
    assert all(boolean(res.x_star) for res in successes)
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.xfail(strict=True, reason=(
    "the AD2 rate row is unscaled: at noise 1 its coefficients are ~1e-10, the first AD2 "
    "stalls with 16 fractional coordinates and _complete_boolean gives up above 8"))
@pytest.mark.parametrize("seed", range(4))
def test_sbqp_succeeds_at_16_antennas_and_noise_1(seed):
    # The alternation alone: solve's all-on incumbent hides its failure.
    prob = scaled_problem(seed=seed, n=16, k=16, noise=1.0)
    sol, _ = driver._ad_loop(prob, driver._sbqp_ad2)
    assert sol.status == "success"


@pytest.mark.parametrize("last_status", ["success", "complementarity_not_met"])
def test_the_loop_stops_before_an_ad2_once_two_ad1_points_agree(last_status):
    # A scripted AD2 moves 0.5 * 1 to x_a, then x_a by 1e-9 per coordinate:
    # neither a repeat nor, with AD1's power still moving, a stop after the
    # AD2.  The third AD1 point agrees with the second within EPS_TERM, so
    # no third AD2 runs; the pair returned is (ad1(x), x) as the loop holds
    # it, and the status is the last AD2's.  iterations counts the passes
    # of the loop, each begun by AD1, so it is one more than the AD2 rows.
    prob = scaled_problem(seed=0, n=2, k=2)
    x_a = np.array([0.75, 0.875])
    steps = [(x_a, "complementarity_not_met"), (x_a + 1e-9, last_status)]
    calls = []

    def scripted(prob, P_bar, x_bar, lambda_bar):
        calls.append(x_bar)
        x, status = steps[len(calls) - 1]
        return bqp.Ad2Result(x.copy(), status, [])

    sol, trace = driver._ad_loop(prob, scripted)
    assert len(calls) == len(trace) == 2
    assert trace[1].dx_norm <= driver.EPS_TERM < trace[1].dp_norm
    assert sol.x_star.tobytes() == (x_a + 1e-9).tobytes()
    assert sol.P_star.tobytes() == ad1(prob, sol.x_star)[0].tobytes()
    assert np.linalg.norm(sol.P_star - ad1(prob, x_a)[0]) <= driver.EPS_TERM
    assert (sol.status, sol.iterations) == (last_status, 3)


def test_the_loop_ends_max_iter_after_max_ad_iter_ad2_steps(monkeypatch):
    # A scripted AD2 that moves every step never repeats and keeps AD1's
    # power moving, so the cap ends the loop right after the AD1 that serves
    # the last step: MAX_AD_ITER rows and one more pass.
    monkeypatch.setattr(driver, "MAX_AD_ITER", 2)
    prob = scaled_problem(seed=0, n=2, k=2)
    steps = [np.array([0.75, 0.875]), np.array([1.0, 0.5])]
    calls = []

    def scripted(prob, P_bar, x_bar, lambda_bar):
        calls.append(x_bar)
        return bqp.Ad2Result(steps[len(calls) - 1].copy(), "success", [])

    sol, trace = driver._ad_loop(prob, scripted)
    assert (sol.status, len(trace), sol.iterations) == ("max_iter", 2, 3)
    assert sol.x_star.tobytes() == steps[-1].tobytes()
    assert sol.P_star.tobytes() == ad1(prob, sol.x_star)[0].tobytes()
    assert sol.rate_residual >= 0.0


@pytest.mark.parametrize("noise", [1e-6, 1e-3])
def test_an_unservable_selection_falls_back_to_the_incumbent(noise):
    # The first AD2 ends at one antenna, which the next AD1 cannot serve, so
    # the alternation ends "infeasible_selection".  It returns the pair the
    # last AD1 served, at the 0.5 * 1 start, and the unservable step is the
    # trace's last row.  solve must return the all-on incumbent instead.
    prob = build_esr_problem(ScenarioConfig(n_tx=7, n_users=7, seed=7, r_th_mode="fraction",
                                            r_th_value=0.15625, noise_n0b=noise))
    steps = []

    def recorded(prob, P_bar, x_bar, lambda_bar):
        res = driver._sbqp_ad2(prob, P_bar, x_bar, lambda_bar)
        steps.append((x_bar, res.x_star))
        return res

    loop, trace = driver._ad_loop(prob, recorded)
    assert loop.status == "infeasible_selection"
    assert loop.iterations == len(trace) + 1 == len(steps) + 1
    start, unservable = steps[-1]
    with pytest.raises(Ad1InfeasibleError):
        ad1(prob, unservable)
    assert trace[-1].dx_norm == float(np.linalg.norm(unservable - start))
    assert loop.x_star.tobytes() == start.tobytes()
    assert loop.P_star.tobytes() == ad1(prob, start)[0].tobytes()
    assert loop.rate_residual >= 0.0
    sol, _ = solve(prob)
    report, _, _ = enumerate_selections(prob)
    assert sol.status == "success"
    assert report.objective - 1e-9 <= sol.objective <= full_activation_allocation(prob)[1]


def test_every_exit_returns_the_pair_ad1_computed():
    # Every Solution but an "infeasible" one is (ad1(x), x) bit for bit: the
    # pair the loop's last AD1 computed, or solve's all-on incumbent.
    t0 = time.perf_counter()
    runs = [solve, lambda prob: driver._ad_loop(prob, driver._sbqp_ad2)]
    for n in (4, 6, 8):
        for noise in (3e-14, 1e-3, 1.0):
            for seed in range(3):
                prob = scaled_problem(seed=seed, n=n, k=n, noise=noise)
                for run in runs + [solve_ad_spen, solve_ad_nspen] * (n == 4):
                    sol, _ = run(prob)
                    assert sol.status != "infeasible"
                    assert sol.P_star.tobytes() == ad1(prob, sol.x_star)[0].tobytes()
                    assert sol.rate_residual >= 0.0
    assert time.perf_counter() - t0 < 5.0


def test_single_antenna_scenario_keeps_it_on():
    prob = unit_channel_problem(r_th=1.0)
    sol, _ = solve(prob)
    assert sol.status == "success"
    np.testing.assert_array_equal(sol.x_star, np.ones(1))
    assert sol.P_star[0, 0] == pytest.approx(1.0, abs=1e-5)


def test_end_to_end_scaled_scenario_properties():
    prob = scaled_problem(seed=1)
    sol, trace = solve(prob)
    assert sol.status == "success"
    assert sol.iterations <= 10
    assert abs(sol.complementarity) <= 1e-12
    assert sol.rate_residual >= -1e-6
    assert sol.row_cap_residual <= 1e-8
    assert len(trace) == sol.iterations
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
        assert sol.status == "success" and trace[-1].dx_norm == 0.0
        assert selection_bounds(np.ones((1, 8)), prob)[1][0] > sol.objective
        assert len(calls) == len(trace)
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
        loop_only, _ = driver._ad_loop(prob, driver._sbqp_ad2)
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
        loop_only, _ = driver._ad_loop(prob, driver._sbqp_ad2)
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
            assert [(r.objective, r.dx_norm, r.lambda_bar, r.ad2_status) for r in got_trace] == [
                (r.objective, r.dx_norm, r.lambda_bar, r.ad2_status) for r in want_trace
            ]


@st.composite
def fraction_scenarios(draw):
    """6x6 to 8x8 fraction-mode scenarios at any seed, at SNRs from the
    selection scenario's down to noise 1, and rate fractions up to 1 - 1e-6."""
    r_th_value = draw(st.one_of(st.floats(0.05, 0.95), st.floats(2.0, 6.0).map(lambda u: 1.0 - 10.0 ** -u)))
    return build_esr_problem(ScenarioConfig(
        n_tx=draw(st.integers(6, 8)), n_users=draw(st.integers(6, 8)), seed=draw(st.integers(0, 2 ** 16)),
        r_th_mode="fraction", r_th_value=r_th_value,
        noise_n0b=draw(st.sampled_from([3e-14, 1e-10, 1e-6, 1e-3, 1.0]))))


@settings(max_examples=200, deadline=None, database=None, print_blob=True,
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


@st.composite
def candidate_sets(draw):
    """A 3x2 to 6x5 scenario at any SNR, 0/1 candidate rows in any order
    with exact duplicates and infeasible rows (the all-off row always among
    them), and an incumbent of inf, of one feasible row's exact objective,
    or below every bound."""
    n = draw(st.integers(3, 6))
    prob = build_esr_problem(ScenarioConfig(
        n_tx=n, n_users=draw(st.integers(2, 5)), seed=draw(st.integers(0, 2 ** 16)),
        r_th_mode="fraction", r_th_value=draw(st.floats(0.05, 0.95)),
        noise_n0b=draw(st.sampled_from([3e-14, 1e-6, 1e-3, 1.0]))))
    masks = draw(st.lists(st.integers(1, 2 ** n - 1), min_size=1, max_size=10)) + [0]
    masks += draw(st.lists(st.sampled_from(masks), max_size=4))  # exact ties
    X = driver.bit_rows(np.array(draw(st.permutations(masks))), n)
    bounds = selection_bounds(X.astype(float), prob)[1]
    kind = draw(st.sampled_from(["inf", "exact", "below"]))
    incumbent = math.inf
    if kind == "below":
        incumbent = np.nextafter(bounds.min(), -np.inf) if np.isfinite(bounds).any() else 0.0
    elif kind == "exact":
        objectives = [cheapest_exhaustive(prob, [x])[0] for x in X.astype(float)]
        feasible = [obj for obj in objectives if obj is not None]
        if feasible:
            incumbent = draw(st.sampled_from(feasible))
    return prob, X, bounds, incumbent


@settings(max_examples=200, deadline=None, database=None, print_blob=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(candidate_sets())
def check_cheapest_selection_against_the_exhaustive_search(case):
    prob, X, bounds, incumbent = case
    got = cheapest_selection(prob, X, bounds, incumbent)
    obj, x, P, _ = cheapest_exhaustive(prob, X.astype(float))
    if obj is None or not obj < incumbent:
        assert got is None
    else:
        assert got[0] == obj and got[1].dtype == float
        assert got[1].tobytes() == x.tobytes() and got[2].tobytes() == P.tobytes()


def test_cheapest_selection_is_the_exhaustive_search_against_the_incumbent():
    # The bound-ordered search returns what ad1 on every row in row order
    # returns, the earlier row winning ties and the incumbent winning its own.
    t0 = time.perf_counter()
    check_cheapest_selection_against_the_exhaustive_search()
    assert time.perf_counter() - t0 < 5.0


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
            np.testing.assert_array_equal(got[0], want)


def test_infeasible_scenario_is_reported_without_iterating():
    prob = build_esr_problem(ScenarioConfig())  # stock 64x64, infeasible
    sol, trace = solve(prob)
    assert sol.status == "infeasible"
    assert sol.iterations == 0
    assert trace == []


def test_termination_norm_decreases_at_convergence():
    prob = scaled_problem(seed=4)
    sol, trace = solve(prob)
    assert sol.status == "success"
    if len(trace) >= 2:
        last = np.hypot(trace[-1].dp_norm, trace[-1].dx_norm)
        prev = np.hypot(trace[-2].dp_norm, trace[-2].dx_norm)
        assert last <= prev + 1e-12


def test_full_activation_allocation_matches_ad1():
    prob = scaled_problem(seed=9)
    P_ref, _ = ad1(prob, np.ones(prob.n_tx))
    P, obj = full_activation_allocation(prob)
    np.testing.assert_allclose(P, P_ref, atol=1e-10)
    assert obj == pytest.approx(
        economic_objective(P, np.ones(prob.n_tx), prob), rel=1e-12
    )
