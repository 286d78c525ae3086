"""Tests of the benchmark itself, at 4x4 so they run in about a minute.

    python3 -m pytest perfbench
"""

import argparse
import dataclasses
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.import_program()

import tracer  # noqa: E402
import workloads  # noqa: E402
from adsbqp import baselines, bqp, cli, driver, nlp, qp  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# cli.bytes_written is left out: timings.json and comparison.csv hold wall times.
COUNT_SUFFIXES = (".calls", ".iters", ".newton_steps", ".rounds", "ad_iters", ".infeasible",
                  ".nonoptimal", ".raised", ".nonsuccess")


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], n=4, pool=2, traced=2, quality=1)


def args_for(name: str, seconds: float = 0.01):
    return argparse.Namespace(workload=name, seed=3, seconds=seconds, trace=0)


def problem(seed: int = 5):
    return workloads.rate.build_esr_problem(workloads.scenario(4, seed))


def test_tracing_leaves_results_bit_identical():
    prob = problem()

    def results():
        sol, _ = driver.solve(prob)
        report, x_enum, _ = baselines.enumerate_selections(prob)
        spen, _ = baselines.solve_ad_spen(prob)
        return [(s.objective, s.x_star.tobytes(), s.status) for s in (sol, spen)] + [
            (report.objective, x_enum.tobytes(), report.status)]

    plain = results()
    t = tracer.Tracer()
    with t:
        traced = results()
    assert traced == plain
    assert {s.name for s in t.spans} >= {"driver.solve", "driver.ad1", "bqp.solve_bqp", "qp.solve_qp",
                                         "nlp.solve_barrier", "nlp.find_strictly_feasible",
                                         "baselines.enumerate_selections", "baselines.solve_ad_spen"}


def test_every_call_site_is_wrapped_and_restored():
    sites = [(bqp, "solve_qp"), (driver, "solve_bqp"), (driver, "solve_barrier"), (driver, "ad1"),
             (driver, "build_ad2_subproblem"), (baselines, "ad1"), (baselines, "build_ad2_subproblem"),
             (baselines, "solve_barrier"), (baselines, "find_strictly_feasible"),
             (nlp, "solve_barrier"), (nlp, "find_strictly_feasible")]
    before = [getattr(m, a) for m, a in sites] + list(cli._RUNNERS.values())
    t = tracer.Tracer()
    t.install()
    try:
        during = [getattr(m, a) for m, a in sites] + list(cli._RUNNERS.values())
        assert all(hasattr(f, "__perfbench_original__") for f in during)
        assert not hasattr(qp.kkt_residual, "__perfbench_original__")
    finally:
        t.uninstall()
    after = [getattr(m, a) for m, a in sites] + list(cli._RUNNERS.values())
    assert all(a is b for a, b in zip(after, before))
    assert tracer.installed_wrappers() == []


def test_nlp_recursion_nests_and_is_counted_once():
    # The box midpoint violates the constraint, so solve_barrier calls
    # find_strictly_feasible, whose phase 1 calls solve_barrier again.
    prob = nlp.NlpProblem(
        n=2, objective=lambda z: float(z.sum()), gradient=lambda z: np.ones(2),
        hessian=lambda z: np.zeros((2, 2)), lower=np.zeros(2), upper=np.ones(2), m=1,
        constraints=lambda z: np.array([1.5 - z.sum()]), constraints_jac=lambda z: -np.ones((1, 2)),
    )
    t = tracer.Tracer()
    with t:
        nlp.solve_barrier(prob)
    names = [(s.name, s.parent, s.outermost) for s in t.spans]
    assert names == [("nlp.solve_barrier", -1, True), ("nlp.find_strictly_feasible", 0, True),
                     ("nlp.solve_barrier", 1, False)]
    m = tracer.layer_metrics(t.spans)
    assert m["nlp.solve_barrier.calls"] == 2
    assert m["nlp.solve_barrier.s"] == t.spans[0].end - t.spans[0].start
    assert m["baselines.switch_nlp_s"] == m["nlp.solve_barrier.s"]


def test_a_failing_instance_is_counted_not_raised():
    def boom(prob):
        raise RuntimeError("barrier iterate left the feasible interior")

    w = dataclasses.replace(tiny("sbqp-16"), solve=boom)
    _, outcome = workloads.run_instance(w, problem())
    assert outcome.problems == ["raised RuntimeError: barrier iterate left the feasible interior"]

    sol, _ = driver.solve(problem())
    assert workloads.check_sbqp(problem(), sol) == []
    bad = dataclasses.replace(sol, status="max_iter", x_star=np.full(4, 0.5))
    assert [p.split(" ")[1] for p in workloads.check_sbqp(problem(), bad)] == ["status", "selection", "rate"]
    assert workloads.check_baseline("AD-SPen", 1.0, 0.5, 0.0) == [
        "AD-SPen complementarity 0.000e+00 < 1e-9", "AD-SBQP objective 1.0 above AD-SPen 0.5"]


def test_rate_oracle_matches_the_program():
    prob = problem()
    sol, _ = driver.solve(prob)
    got = workloads.rate_oracle(prob, sol.P_star, sol.x_star)
    assert got == pytest.approx(workloads.rate.sum_rate(sol.P_star, sol.x_star, prob), rel=1e-12)


def test_end_to_end_metrics_match_the_spec(tmp_path):
    metrics, units, problems, extra = run.timed_run(args_for("sbqp-16"), tiny("sbqp-16"), tmp_path)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: units[name] for name in metrics} == expected
    assert all(v > 0 for v in metrics.values())
    assert not any(problems)
    assert len(extra["setup_s_samples"]) == run.SETUP_SAMPLES
    assert extra["reference_passes"] >= run.MIN_REFERENCE_PASSES
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_enum_and_compare_runs_check_their_outputs(tmp_path):
    _, _, problems, extra = run.timed_run(args_for("enum-8"), tiny("enum-8"), tmp_path)
    assert not any(problems) and 0 <= extra["enum_gap_max"] < 0.5
    w = dataclasses.replace(tiny("compare-2"), n=2)
    _, outcome = workloads.run_instance(w, w.build(0, tmp_path))
    assert outcome.problems == [] and outcome.bytes_written > 0
    assert not any(tmp_path.iterdir())


def test_traced_counts_repeat_and_metrics_match_the_spec(tmp_path):
    first = run.traced_run(args_for("sbqp-16"), tiny("sbqp-16"), tmp_path)
    second = run.traced_run(args_for("sbqp-16"), tiny("sbqp-16"), tmp_path)
    (m1, units, problems, extra), (m2, *_) = first, second
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: units[name] for name in m1} == expected
    assert not any(problems)
    counts = [name for name in m1 if name.endswith(COUNT_SUFFIXES)]
    assert m1["qp.solve_qp.calls"] > 0 and m1["driver.ad1.calls"] > 0
    assert {n: m1[n] for n in counts} == {n: m2[n] for n in counts}
    assert tracer.installed_wrappers() == []


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sbqp-16", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_any_integer_seed_gives_fixed_distinct_instances():
    for seed in (0, 7, 3141592653, 2**70, -1):
        seeds = [workloads.instance_seed(seed, i) for i in range(32)]
        assert seeds == [workloads.instance_seed(seed, i) for i in range(32)]
        assert len(set(seeds)) == 32
        assert all(0 <= s < workloads.FIXED_SEED for s in seeds)
    assert workloads.instance_seed(0, 0) != workloads.instance_seed(1, 0)
