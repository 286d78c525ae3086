"""End-to-end acceptance checks.

Each test pins one externally visible guarantee of the package — derivative
accuracy, solver tolerances, Boolean recovery, end-to-end selection quality,
baseline behavior, graceful infeasibility and reproducible outputs — with an
explicit runtime budget.
"""

import time

import numpy as np
import pytest

from adsbqp.baselines import enumerate_selections, solve_ad_nspen, solve_ad_spen
from adsbqp.channel import ScenarioConfig
from adsbqp.cli import main
from adsbqp.driver import solve
from adsbqp.qp import solve_qp
from adsbqp.bqp import penalty_phi, solve_bqp
from adsbqp.rate import (
    build_esr_problem,
    grad_rate_wrt_power,
    grad_rate_wrt_switch,
    hess_rate_wrt_switch,
    sum_rate,
)
from _oracles import active_set_qp, enumerate_boolean_qp, fd_gradient, fd_jacobian, full_activation_allocation
from test_bqp import box_qp, loose_row
from test_qp import random_convex_qp

SELECTION_SCENARIO = dict(r_th_mode="fraction", r_th_value=0.5, noise_n0b=3e-14)


def selection_problem(seed, n, k):
    return build_esr_problem(
        ScenarioConfig(n_tx=n, n_users=k, seed=seed, **SELECTION_SCENARIO)
    )


def rel_err(a, b):
    return np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b)))


def test_criterion_1_derivatives_match_finite_differences():
    t0 = time.perf_counter()
    prob = build_esr_problem(
        ScenarioConfig(n_tx=4, n_users=3, seed=0, r_th_mode="fraction", r_th_value=0.5)
    )
    rng = np.random.default_rng(0)
    for _ in range(20):
        P = rng.uniform(0.01, 1.0, size=(prob.n_tx, prob.n_users))
        x = rng.uniform(0.1, 0.9, size=prob.n_tx)

        fd_p = fd_gradient(
            lambda v: sum_rate(v.reshape(P.shape), x, prob), P.ravel(), h=1e-6
        ).reshape(P.shape)
        assert rel_err(grad_rate_wrt_power(P, x, prob), fd_p) <= 1e-6

        fd_x = fd_gradient(lambda v: sum_rate(P, v, prob), x, h=1e-6)
        assert rel_err(grad_rate_wrt_switch(P, x, prob), fd_x) <= 1e-6

        fd_h = fd_jacobian(lambda v: grad_rate_wrt_switch(P, v, prob), x, h=1e-6)
        assert rel_err(hess_rate_wrt_switch(P, x, prob), fd_h) <= 1e-6
    assert time.perf_counter() - t0 < 5.0


def test_criterion_2_qp_solver_tolerance_and_oracle_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for i in range(100):
        qp = random_convex_qp(rng, n_max=10)
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        assert sol.kkt_residual <= 1e-10
        if i % 10 == 0:  # oracle spot checks keep the budget
            x_ref = active_set_qp(qp.Q, qp.g, qp.a, qp.u, 0.0, 1.0)
            assert qp.objective(sol.x_star) <= qp.objective(x_ref) + 1e-8
    assert time.perf_counter() - t0 < 30.0


def test_criterion_3_boolean_qp_reaches_exact_lattice_points():
    t0 = time.perf_counter()
    rng = np.random.default_rng(30)
    gaps = []
    for _ in range(50):
        n = int(rng.integers(2, 13))
        B = rng.normal(size=(n, n)) / np.sqrt(n)
        Q = B @ B.T + np.eye(n)
        g = rng.normal(size=n)
        qp = box_qp(Q, g, *loose_row(rng, n))
        res = solve_bqp(qp)
        assert res.status == "success"
        assert np.max(np.abs(res.x_star - np.round(res.x_star))) <= 1e-9
        assert abs(penalty_phi(res.x_star)) <= 1e-10
        if n <= 10:
            best_obj, _ = enumerate_boolean_qp(qp.Q, qp.g, qp.a, qp.u)
            gaps.append(qp.objective(res.x_star) - best_obj)
            assert gaps[-1] >= -1e-9
    assert all(np.isfinite(gaps))
    assert time.perf_counter() - t0 < 60.0


def test_criterion_4_end_to_end_selection_beats_full_activation():
    t0 = time.perf_counter()
    prob = selection_problem(seed=1, n=8, k=8)
    sol, trace = solve(prob)
    assert sol.status == "success"
    assert sol.iterations <= 10
    assert abs(sol.complementarity) <= 1e-12
    assert sol.rate_residual >= -1e-6
    assert np.all(sol.P_star.sum(axis=1) <= prob.cfg.p_th + 1e-8)
    _, obj_full = full_activation_allocation(prob)
    assert sol.objective < obj_full
    assert time.perf_counter() - t0 < 10.0


def test_criterion_5_matches_enumeration_and_order_invariance():
    t0 = time.perf_counter()
    prob = selection_problem(seed=1, n=4, k=2)
    sol, _ = solve(prob)
    assert sol.status == "success"
    report, _, _ = enumerate_selections(prob)
    gap = sol.objective - report.objective
    assert gap >= -1e-9  # enumeration is ground truth
    assert time.perf_counter() - t0 < 10.0


def test_criterion_6_baseline_comparison_over_seeds():
    t0 = time.perf_counter()
    for seed in range(5):
        prob = selection_problem(seed=seed, n=16, k=16)
        sbqp, _ = solve(prob)
        assert sbqp.status == "success"
        assert abs(sbqp.complementarity) <= 1e-12
        for solver in (solve_ad_spen, solve_ad_nspen):
            base, _ = solver(prob)
            assert base.complementarity >= 1e-9
            assert sbqp.objective <= base.objective + 1e-12
    assert time.perf_counter() - t0 < 120.0


def test_criterion_7_stock_large_scenario_reports_infeasibility_cleanly():
    t0 = time.perf_counter()
    prob = build_esr_problem(ScenarioConfig())  # 64 antennas, 64 users
    assert not prob.feasible_at_full_activation
    sol, trace = solve(prob)
    assert sol.status == "infeasible"
    assert sol.iterations == 0
    assert np.isnan(sol.objective)
    assert trace == []
    assert time.perf_counter() - t0 < 600.0


def test_criterion_8_trace_outputs_are_byte_reproducible(tmp_path):
    scen = tmp_path / "scen.txt"
    scen.write_text(
        "n_tx = 8\nn_users = 8\nseed = 1\nr_th_mode = fraction\n"
        "r_th_value = 0.5\nnoise_n0b = 3e-14\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", str(scen), "--out", str(out_a)]) == 0
    assert main(["run", "--scenario", str(scen), "--out", str(out_b)]) == 0
    for name in ("trace_AD-SBQP.csv", "trace_AD-SBQP.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_criterion_9_never_beats_enumeration_over_seeds():
    t0 = time.perf_counter()
    for seed in range(20):
        prob = selection_problem(seed=seed, n=8, k=8)
        sol, _ = solve(prob)
        report, _, _ = enumerate_selections(prob)
        assert sol.status == "success"
        assert report.status == "success"
        assert sol.objective >= report.objective - 1e-9 * abs(report.objective)
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "AD-SBQP starts at 0.5*1 and its first AD2 keeps about N/2 antennas on: at a low "
    "threshold it ends 107-129% above ENUM with 3 antennas on against 1"))
def test_matches_enumeration_at_high_snr_and_a_low_threshold():
    t0 = time.perf_counter()
    for seed in range(4):
        prob = build_esr_problem(ScenarioConfig(n_tx=8, n_users=8, seed=seed, r_th_mode="fraction",
                                                r_th_value=0.1, noise_n0b=3e-14))
        sol, _ = solve(prob)
        report, _, _ = enumerate_selections(prob)
        assert abs(sol.objective - report.objective) <= 1e-9 * abs(report.objective)
    assert time.perf_counter() - t0 < 2.0


def test_criterion_10_homotopy_takes_few_steps():
    # The paper's "only a few steps": the homotopy ends at the first iterate
    # that identifies the Boolean point, and the AD loop ends once AD2
    # returns its start, so a whole solve makes a handful of rho rounds.
    t0 = time.perf_counter()
    for seed, n in [(s, 16) for s in range(5)] + [(0, 64)]:
        sol, trace = solve(selection_problem(seed=seed, n=n, k=n))
        assert sol.status == "success"
        assert sum(len(row.ad2_trace) for row in trace) <= 8
        assert trace[-1].dx_norm == 0.0
    assert time.perf_counter() - t0 < 10.0


def test_criterion_11_enumeration_at_12_and_16():
    # ENUM is the ground truth of the AD-SBQP gap at 12 and 16 antennas: the
    # water-filling bound leaves a few power subproblems of the 4095 and
    # 65535 selections to solve.
    t0 = time.perf_counter()
    for seed, n in [(s, 12) for s in range(10)] + [(s, 16) for s in range(3)]:
        prob = selection_problem(seed=seed, n=n, k=n)
        sol, _ = solve(prob)
        report, _, _ = enumerate_selections(prob)
        assert sol.status == "success"
        assert report.status == "success"
        assert sol.objective >= report.objective - 1e-9 * abs(report.objective)
    assert time.perf_counter() - t0 < 10.0
