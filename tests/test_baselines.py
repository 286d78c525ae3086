from dataclasses import replace

import numpy as np
import pytest

from adsbqp import baselines, nlp
from adsbqp.baselines import (
    METHOD_NAMES,
    MethodReport,
    enumerate_selections,
    solve_ad_nspen,
    solve_ad_spen,
)
from adsbqp.channel import ChannelMatrix, ScenarioConfig, generate_channel
from adsbqp.bqp import BETA, RHO0, STALL_TOL, penalty_homotopy
from adsbqp.driver import Ad1InfeasibleError, ad1, solve
from adsbqp.rate import build_esr_problem, economic_objective, selection_bounds, sum_rate
from adsbqp.nlp import InfeasibleProblemError, NlpSolution
from _oracles import enumerate_exhaustive, solve_barrier_reference
from test_nlp import assert_same_solution


def scaled_problem(seed=1, n=8, k=8, noise=3e-14):
    cfg = ScenarioConfig(
        n_tx=n, n_users=k, seed=seed, r_th_mode="fraction", r_th_value=0.5,
        noise_n0b=noise,
    )
    return build_esr_problem(cfg)


def test_method_report_rejects_unknown_names():
    with pytest.raises(ValueError):
        MethodReport("unheard-of", 0.0, 0.0, 0, 0.0, "success")
    for name in METHOD_NAMES:
        MethodReport(name, 0.0, 0.0, 0, 0.0, "success")


def test_enumeration_refuses_large_instances():
    prob = scaled_problem(seed=0)
    with pytest.raises(baselines.EnumerationRefused):
        enumerate_selections(prob, n_limit=4)


@pytest.mark.parametrize("n, n_limit", [(64, 64), (25, 30)])
def test_enumeration_refuses_more_antennas_than_its_ceiling(n, n_limit):
    # Refused before the 2^n masks are allocated, whatever n_limit allows.
    prob = scaled_problem(seed=0, n=n, k=n)
    with pytest.raises(baselines.EnumerationRefused, match=f"{n} antennas exceeds the limit of 24"):
        enumerate_selections(prob, n_limit=n_limit)


def test_enumeration_result_is_feasible_and_not_worse_than_any_solver():
    prob = scaled_problem(seed=1, n=4, k=2)
    report, x_best, P_best = enumerate_selections(prob)
    assert report.status == "success"
    assert report.complementarity == 0.0
    assert sum_rate(P_best, x_best, prob) >= prob.r_th - 1e-6
    sol, _ = solve(prob)
    assert report.objective <= sol.objective + 1e-9


def dead_antenna_problem():
    """3x2 instance whose antenna 1 has a vanishing channel."""
    cfg = ScenarioConfig(
        n_tx=3, n_users=2, seed=5, r_th_mode="fraction", r_th_value=0.5,
        noise_n0b=3e-14,
    )
    channel = generate_channel(cfg)
    entries = channel.entries.copy()
    entries[1, :] *= 1e-9
    weak = ChannelMatrix(
        entries=entries,
        user_distances=channel.user_distances,
        user_positions=channel.user_positions,
    )
    return build_esr_problem(cfg, channel=weak)


def infeasible_problem():
    return build_esr_problem(
        ScenarioConfig(n_tx=2, n_users=2, seed=0, r_th_mode="absolute", r_th_value=1e6)
    )


def test_enumeration_skips_a_dead_antenna():
    # One antenna with a vanishing channel can only add standby cost; the
    # optimum must not select it.
    report, x_best, _ = enumerate_selections(dead_antenna_problem())
    assert report.status == "success"
    assert x_best[1] == 0.0


def test_enumeration_matches_the_exhaustive_oracle():
    # The bound only skips selections that cannot win, so the result is the
    # exhaustive one bit for bit, at low SNR too, where feasibility is exact
    # only by water-filling.
    probs = [scaled_problem(seed=s) for s in range(5)]
    probs += [scaled_problem(seed=s, n=8, k=4, noise=1e-10) for s in range(10)]
    probs += [dead_antenna_problem(), infeasible_problem()]
    for prob in probs:
        report, x_best, P_best = enumerate_selections(prob)
        obj, x_ref, P_ref, n_feasible = enumerate_exhaustive(prob)
        assert report.iterations == n_feasible
        if obj is None:
            assert report.status == "infeasible" and x_best is None
            continue
        assert report.objective == obj
        assert x_best.tobytes() == x_ref.tobytes()
        assert P_best.tobytes() == P_ref.tobytes()


def test_selection_bound_lies_just_below_every_feasible_objective():
    # The water-filling least total plus the standby draw bounds the ad1
    # objective from below, and ad1's rate slack mu / lambda costs it about
    # mu = 1e-9, well within 1e-6.
    masks = np.arange(1, 2 ** 8)
    X = ((masks[:, None] >> np.arange(8)) & 1).astype(float)
    for seed in range(3):
        prob = scaled_problem(seed=seed)
        feasible, bound = selection_bounds(X, prob)
        assert feasible.any()
        for x, f, b in zip(X, feasible, bound):
            if not f:
                with pytest.raises(Ad1InfeasibleError):
                    ad1(prob, x)
                continue
            P, _ = ad1(prob, x)
            obj = economic_objective(P, x, prob)
            assert b <= obj <= b * (1.0 + 1e-6)


def test_enumeration_reports_infeasibility_with_nan_objective():
    report, x_best, P_best = enumerate_selections(infeasible_problem())
    assert report.status == "infeasible"
    assert np.isnan(report.objective)
    assert x_best is None and P_best is None


def test_penalty_baselines_stall_with_residual_complementarity():
    # The smooth penalty methods cannot push iterates onto the exact Boolean
    # lattice: the barrier keeps every coordinate strictly interior, so the
    # complementarity residual plateaus well above the homotopy method's.
    prob = scaled_problem(seed=0, n=8, k=8)
    sbqp, _ = solve(prob)
    assert sbqp.status == "success"
    assert abs(sbqp.complementarity) <= 1e-12
    for solver in (solve_ad_spen, solve_ad_nspen):
        sol, _ = solver(prob)
        assert sol.status in ("complementarity_not_met", "max_iter")
        assert sol.complementarity >= 1e-9
        assert sol.complementarity > sbqp.complementarity
        assert sbqp.objective <= sol.objective + 1e-12


def test_baselines_share_the_infeasibility_branch():
    prob = build_esr_problem(ScenarioConfig())  # stock 64x64, infeasible
    for solver in (solve_ad_spen, solve_ad_nspen):
        sol, trace = solver(prob)
        assert sol.status == "infeasible"
        assert sol.iterations == 0
        assert trace == []


def test_baseline_solutions_respect_problem_constraints():
    prob = scaled_problem(seed=2, n=8, k=8)
    sol, _ = solve_ad_spen(prob)
    assert np.all(sol.x_star >= -1e-12) and np.all(sol.x_star <= 1.0 + 1e-12)
    assert np.all(sol.P_star >= -1e-10)
    assert sol.row_cap_residual <= 1e-8
    assert sol.objective == pytest.approx(
        economic_objective(sol.P_star, sol.x_star, prob), rel=1e-12
    )


def test_baselines_follow_the_shared_rho_schedule():
    # Both smooth baselines run the Boolean-QP method's penalty homotopy, so
    # every AD2 trace starts at RHO0 and multiplies rho by BETA per round.
    # The first AD2 starts from 0.5*1 and has to move; a later one may stop
    # after one round, and then only by the stall rule.
    prob = scaled_problem(seed=0, n=2, k=2)
    for solver in (solve_ad_spen, solve_ad_nspen):
        _, trace = solver(prob)
        assert trace
        assert len(trace[0].ad2_trace) >= 2
        for row in trace:
            rhos = [it.rho for it in row.ad2_trace]
            assert rhos == [RHO0 * BETA ** i for i in range(len(rhos))]
            if len(rhos) == 1:
                assert row.dx_norm <= np.sqrt(prob.n_tx) * STALL_TOL


def test_switch_nlps_match_the_reference_barrier_loop(monkeypatch):
    # Every barrier solve AD-SPen and AD-NSPen make at 2x2, the phase-1
    # solves of find_strictly_feasible included, returns the reference
    # loop's bytes and never passes the objective the point it was just
    # passed.  (Near the bound the iterate can cycle between two points a
    # rounding apart, so the same point may come back later.)  A round
    # starts at the last iterate, which is strictly feasible, so phase 1
    # runs only from a start on the box boundary: the all-on x_bar, with
    # the power and multiplier of ad1 there, is added for it.
    solves = []

    def recorded(prob, z0=None):
        seen = []

        def objective(z):
            seen.append(np.asarray(z, dtype=float).tobytes())
            return prob.objective(z)

        sol = solve_barrier(replace(prob, objective=objective), z0=z0)
        assert all(a != b for a, b in zip(seen, seen[1:]))
        solves.append((prob, z0, sol))
        return sol

    solve_barrier = nlp.solve_barrier
    monkeypatch.setattr(nlp, "solve_barrier", recorded)
    monkeypatch.setattr(baselines, "solve_barrier", recorded)
    for seed in range(4):
        prob = scaled_problem(seed=seed, n=2, k=2)
        solve_ad_spen(prob)
        solve_ad_nspen(prob)
        x_on = np.ones(prob.n_tx)
        P_on, lam_on = ad1(prob, x_on)
        for ad2 in (baselines._spen_ad2, baselines._nspen_ad2):
            ad2(prob, P_on, x_on, lam_on)
    monkeypatch.undo()
    assert any(prob.n == 3 for prob, *_ in solves)  # phase 1 ran
    for prob, z0, sol in solves:
        assert_same_solution(sol, solve_barrier_reference(prob, z0=z0))


def test_switch_nlp_rounds_start_at_the_last_iterate(monkeypatch):
    # Every barrier iterate is strictly feasible, so each round's barrier
    # solve starts at that round's x_hat, bit for bit, and no round at 2x2
    # runs a phase-1 solve (an (n + 1)-variable barrier solve).
    rounds, starts = [], []

    def homotopy(step, x0):
        def recorded_step(rho, x_hat):
            rounds.append(np.asarray(x_hat, dtype=float).tobytes())
            return step(rho, x_hat)

        return penalty_homotopy(recorded_step, x0)

    def recorded(prob, z0=None):
        starts.append((prob.n, np.asarray(z0, dtype=float).tobytes()))
        return solve_barrier(prob, z0=z0)

    solve_barrier = nlp.solve_barrier
    monkeypatch.setattr(baselines, "penalty_homotopy", homotopy)
    monkeypatch.setattr(nlp, "solve_barrier", recorded)
    monkeypatch.setattr(baselines, "solve_barrier", recorded)
    for seed in range(4):
        prob = scaled_problem(seed=seed, n=2, k=2)
        solve_ad_spen(prob)
        solve_ad_nspen(prob)
    assert rounds
    assert starts == [(2, x_hat) for x_hat in rounds]


def test_phase_one_start_from_all_on_runs_the_homotopy():
    # At 2x2 and r_th_value 0.99999 the all-on switch vector is not strictly
    # feasible for either switch NLP, so phase 1 finds the start.  Phase 1
    # ends at a strictly feasible point whose slack s is not below -1e-10;
    # that point is kept, and the homotopy runs from it.
    prob = build_esr_problem(ScenarioConfig(n_tx=2, n_users=2, seed=0, r_th_mode="fraction",
                                            r_th_value=0.99999, noise_n0b=3e-14))
    x_on = np.ones(2)
    P_on, lam_on = ad1(prob, x_on)
    for ad2 in (baselines._spen_ad2, baselines._nspen_ad2):
        res = ad2(prob, P_on, x_on, lam_on)
        assert res.trace and res.status != "stalled"


@pytest.mark.parametrize("outcome, status", [("stalled", "stalled"), ("max_iter", "max_iter"),
                                             (RuntimeError("left the interior"), "barrier_failed"),
                                             (InfeasibleProblemError("no start"), "stalled")])
def test_a_failed_switch_nlp_ends_the_homotopy_with_its_status(monkeypatch, outcome, status):
    # A barrier solve that ends short or raises ends the homotopy with its
    # status; a round with no strictly feasible start ends it as "stalled".
    def failing(prob, z0=None):
        if isinstance(outcome, Exception):
            raise outcome
        return NlpSolution(np.asarray(z0, dtype=float), np.zeros(prob.m), outcome, 1, 1.0, 1.0)

    no_start = isinstance(outcome, InfeasibleProblemError)
    monkeypatch.setattr(baselines, "find_strictly_feasible" if no_start else "solve_barrier", failing)
    prob = scaled_problem(seed=0, n=2, k=2)
    for solver in (solve_ad_spen, solve_ad_nspen):
        sol, trace = solver(prob)
        row = trace[0]
        assert row.ad2_status == status and row.ad2_trace == []
        assert sol.status == "complementarity_not_met"
