"""Workloads of the adsbqp benchmark: instances, the operation timed on each,
and the correctness checks applied to its outputs.

Every instance uses the acceptance-test scenario (fractional rate threshold
0.5, noise 3e-14); the stock 64x64 scenario is infeasible and returns after
zero iterations, so it would measure nothing.  The program is always called
through module attributes (``driver.solve``), so an installed tracer sees
the call.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from adsbqp import baselines, cli, driver, rate
from adsbqp.channel import ScenarioConfig

SCENARIO = {"r_th_mode": "fraction", "r_th_value": 0.5, "noise_n0b": 3e-14}
# Measured instances take 32-bit scenario seeds hashed from (--seed, i), so
# any integer --seed works; warm-up and quality-set instances take seeds from
# FIXED_SEED upward, above every hashed seed.
FIXED_SEED = 10**12
COMPARE_METHODS = ("AD-SBQP", "AD-SPen", "AD-NSPen")


def instance_seed(seed: int, i: int) -> int:
    """Scenario seed of the i-th measured instance of a run with ``--seed``."""
    return int(np.random.SeedSequence([seed % 2**64, i]).generate_state(1)[0])


def scenario(n: int, seed: int) -> ScenarioConfig:
    return ScenarioConfig(n_tx=n, n_users=n, seed=seed, **SCENARIO)


@dataclass
class Outcome:
    """Checked result of one instance."""

    objective: float  # AD-SBQP objective
    problems: list[str]
    gap: float | None = None  # (AD-SBQP - ENUM) / ENUM
    bytes_written: int = 0


def rate_oracle(prob, P: np.ndarray, x: np.ndarray) -> float:
    """Sum rate from the model's formula, independent of ``adsbqp.rate``."""
    gains = np.abs(prob.channel.entries) ** 2
    snr = (x @ P) * ((x ** 2) @ gains) / prob.cfg.noise_n0b
    return float(prob.cfg.bandwidth_b * np.sum(np.log2(1.0 + snr)))


def check_sbqp(prob, sol) -> list[str]:
    """AD-SBQP: success, exact Boolean x, rate met, row caps met."""
    problems = []
    if sol.status != "success":
        problems.append(f"AD-SBQP status {sol.status}")
    if not abs(sol.complementarity) <= 1e-12:
        problems.append(f"AD-SBQP complementarity {sol.complementarity:.3e} > 1e-12")
    x = np.asarray(sol.x_star)
    if not np.all((x == 0.0) | (x == 1.0)):
        problems.append("AD-SBQP selection is not Boolean")
    residual = rate_oracle(prob, sol.P_star, x) - prob.r_th
    if not residual >= -1e-6:
        problems.append(f"AD-SBQP rate residual {residual:.3e} < -1e-6")
    row_max = float(np.max(np.asarray(sol.P_star).sum(axis=1)))
    if not row_max <= prob.cfg.p_th + 1e-8:
        problems.append(f"AD-SBQP row sum {row_max:.6g} exceeds p_th + 1e-8")
    return problems


def check_baseline(method: str, sbqp_obj: float, objective: float, complementarity: float) -> list[str]:
    """Smooth baselines stall by design and never beat AD-SBQP."""
    problems = []
    if not complementarity >= 1e-9:
        problems.append(f"{method} complementarity {complementarity:.3e} < 1e-9")
    if not sbqp_obj <= objective + 1e-12:
        problems.append(f"AD-SBQP objective {sbqp_obj!r} above {method} {objective!r}")
    return problems


def _solve_sbqp(prob):
    return driver.solve(prob)[0]


def _check_sbqp(prob, sol) -> Outcome:
    return Outcome(sol.objective, check_sbqp(prob, sol))


def _solve_enum(prob):
    report, _, _ = baselines.enumerate_selections(prob)
    return report, driver.solve(prob)[0]


def _check_enum(prob, result) -> Outcome:
    report, sol = result
    problems = check_sbqp(prob, sol)
    if report.status != "success":
        problems.append(f"ENUM status {report.status}")
        return Outcome(sol.objective, problems)
    if not sol.objective >= report.objective - 1e-9 * abs(report.objective):
        problems.append(f"AD-SBQP objective {sol.objective!r} below ENUM {report.objective!r}")
    gap = (sol.objective - report.objective) / report.objective
    return Outcome(sol.objective, problems, gap=gap)


@dataclass
class CompareInstance:
    config: ScenarioConfig
    out_dir: Path
    methods: tuple[str, ...] = COMPARE_METHODS


def _solve_compare(inst: CompareInstance):
    manifest = cli.RunManifest(
        scenario_path=None,
        methods=list(inst.methods),
        seed=inst.config.seed,
        out_dir=inst.out_dir,
        config=inst.config,
        ad_config=driver.AdConfig(),
    )
    return cli.run_compare(manifest)


def _check_compare(inst: CompareInstance, result) -> Outcome:
    out = inst.out_dir
    try:
        expected = ["manifest.json", "comparison.csv", "comparison.json", "timings.json",
                    "selection_AD-SBQP.txt", "selection_AD-SBQP.json"]
        expected += [f"trace_{m}.{ext}" for m in inst.methods for ext in ("csv", "json")]
        problems = [f"missing output {name}" for name in expected if not (out / name).is_file()]
        written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        if problems:
            return Outcome(float("nan"), problems, bytes_written=written)
        rows = json.loads((out / "comparison.json").read_text())["rows"]
        if len(rows) != len(inst.methods):
            return Outcome(float("nan"), [f"comparison.json holds {len(rows)} rows"], bytes_written=written)
        by_method = {r["method"]: r for r in rows}
        sbqp = by_method["AD-SBQP"]
        sbqp_obj = float(sbqp["objective"])
        comp = float(sbqp["complementarity"])
        if sbqp["status"] != "success":
            problems.append(f"AD-SBQP status {sbqp['status']}")
        if not comp <= 1e-12:
            problems.append(f"AD-SBQP complementarity {comp:.3e} > 1e-12")
        if comp != 0.0:  # x'(1-x) on [0,1]^n vanishes exactly on Boolean x
            problems.append("AD-SBQP selection is not Boolean")
        sel = json.loads((out / "selection_AD-SBQP.json").read_text())
        residual = sel["achieved_rate"] - sel["rate_threshold"]
        if not residual >= -1e-6:
            problems.append(f"AD-SBQP rate residual {residual:.3e} < -1e-6")
        if not max(sel["per_antenna_power"]) <= inst.config.p_th + 1e-8:
            problems.append("AD-SBQP row sum exceeds p_th + 1e-8")
        for method in inst.methods[1:]:
            row = by_method[method]
            problems += check_baseline(method, sbqp_obj, float(row["objective"]), float(row["complementarity"]))
        return Outcome(sbqp_obj, problems, bytes_written=written)
    finally:
        shutil.rmtree(out, ignore_errors=True)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # antennas = users
    pool: int  # instances built per run; the timed loop cycles through them
    traced: int  # instances in a traced run, fixed so that counts repeat
    quality: int  # fixed instances whose mean AD-SBQP objective guards quality
    warmup_n: int  # size of the untimed warm-up instance
    solve: Callable
    check: Callable[..., Outcome]
    compare: bool = False

    def build(self, seed: int, work_dir: Path):
        """Instance for one scenario seed: an EsrProblem, or a compare job."""
        cfg = scenario(self.n, seed)
        if self.compare:
            return CompareInstance(cfg, work_dir / f"compare-{seed}")
        return rate.build_esr_problem(cfg)

    def warmup_instance(self, work_dir: Path):
        cfg = scenario(self.warmup_n, FIXED_SEED)
        if self.compare:
            # AD-SBQP alone: the baselines take seconds even at 2x2.
            return CompareInstance(cfg, work_dir / "compare-warmup", methods=("AD-SBQP",))
        return rate.build_esr_problem(cfg)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sbqp-16", 16, pool=96, traced=10, quality=2, warmup_n=4,
                 solve=_solve_sbqp, check=_check_sbqp),
        Workload("enum-8", 8, pool=12, traced=3, quality=4, warmup_n=4,
                 solve=_solve_enum, check=_check_enum),
        Workload("compare-2", 2, pool=12, traced=3, quality=4, warmup_n=2,
                 solve=_solve_compare, check=_check_compare, compare=True),
    )
}


def run_instance(workload: Workload, inst, clock: Callable[[], float] = time.process_time) -> tuple[float, Outcome]:
    """Solve one instance and check it; never raises.

    Returns the seconds ``clock`` advanced during the solve (the check is not
    timed) and the checked outcome.  The default clock is CPU time of this
    process, which leaves out the time the process waits for a core; on a
    shared host that wait swings with other tenants' load."""
    t0 = clock()
    try:
        result = workload.solve(inst)
    except Exception as exc:  # one failing instance must not end the run
        elapsed = clock() - t0
        if workload.compare:
            shutil.rmtree(inst.out_dir, ignore_errors=True)
        return elapsed, Outcome(float("nan"), [f"raised {type(exc).__name__}: {exc}"])
    elapsed = clock() - t0
    try:
        return elapsed, workload.check(inst, result)
    except Exception as exc:
        return elapsed, Outcome(float("nan"), [f"check raised {type(exc).__name__}: {exc}"])


def quality_objectives(workload: Workload) -> tuple[list[float], list[list[str]]]:
    """AD-SBQP on the fixed quality set; returns objectives and problems."""
    objectives, problems = [], []
    for q in range(workload.quality):
        prob = rate.build_esr_problem(scenario(workload.n, FIXED_SEED + 1 + q))
        try:
            sol = driver.solve(prob)[0]
        except Exception as exc:
            objectives.append(float("nan"))
            problems.append([f"raised {type(exc).__name__}: {exc}"])
            continue
        objectives.append(sol.objective)
        problems.append(check_sbqp(prob, sol))
    return objectives, problems
