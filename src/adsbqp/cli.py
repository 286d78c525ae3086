"""Experiment harness: scenario files in, trace/comparison CSV + JSON out.

Scenario files are flat ``key = value`` text mirroring the scenario config
fields; missing keys take the built-in defaults.  Outputs are deterministic
for a fixed manifest: every value in the trace and comparison files derives
from the seeded solve.  Wall-clock timings go to a separate timings.json so
the deterministic files stay byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import rate as rate_mod
from .baselines import (
    METHOD_NAMES,
    EnumerationRefused,
    MethodReport,
    enumerate_selections,
    solve_ad_nspen,
    solve_ad_spen,
)
from .channel import ScenarioConfig
from .driver import AdConfig, AdIterate, Solution, solve
from .rate import EsrProblem, build_esr_problem

__all__ = [
    "ScenarioParseError",
    "RunManifest",
    "load_scenario",
    "run_compare",
    "emit_selection_report",
    "main",
]

TRACE_SCHEMA = "adsbqp-trace-v3"
COMPARISON_SCHEMA = "adsbqp-comparison-v1"

_TUPLE_KEYS = {"cell_center", "bs_position"}
_INT_KEYS = {"n_tx", "n_users", "seed"}
_STR_KEYS = {"r_th_mode"}


class ScenarioParseError(ValueError):
    """Malformed scenario file; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse a key-value scenario file, defaulting every missing key.

    A value ScenarioConfig rejects is reported with the line of its key, and
    a key set twice with the line of its second setting.
    """
    fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
    values = {}
    key_lines = {}
    text = Path(path).read_text()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioParseError(f"expected 'key = value', got {raw!r}", line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in fields:
            raise ScenarioParseError(f"unknown key {key!r}", line_no)
        if key in key_lines:
            raise ScenarioParseError(f"duplicate key {key!r}, first set on line {key_lines[key]}", line_no)
        key_lines[key] = line_no
        try:
            if key in _TUPLE_KEYS:
                parts = [float(p) for p in value.replace("(", "").replace(")", "").split(",")]
                if len(parts) != 2:
                    raise ValueError("expected two coordinates")
                values[key] = (parts[0], parts[1])
            elif key in _INT_KEYS:
                values[key] = int(value)
            elif key in _STR_KEYS:
                values[key] = value
            else:
                values[key] = float(value)
        except ValueError as exc:
            raise ScenarioParseError(f"bad value for {key!r}: {value!r} ({exc})", line_no) from exc
    try:
        return ScenarioConfig(**values)
    except ValueError as exc:
        # ScenarioConfig's messages begin with the name of the rejected field.
        field_name = str(exc).split(" ", 1)[0]
        raise ScenarioParseError(str(exc), key_lines.get(field_name)) from exc


def scenario_hash(cfg: ScenarioConfig) -> str:
    canonical = json.dumps(dataclasses.asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class RunManifest:
    """The inputs of one run; methods is a non-empty list of distinct
    baselines.METHOD_NAMES, run in its order, and seed equals config.seed.
    ad_config, an AdConfig without fields, stays only because the benchmark
    harness passes one."""

    scenario_path: str | None
    methods: list[str]
    seed: int
    out_dir: Path
    config: ScenarioConfig
    ad_config: AdConfig = AdConfig()
    version: str = ""

    def __post_init__(self) -> None:
        self.out_dir = Path(self.out_dir)
        if not self.version:
            self.version = __version__
        if self.seed != self.config.seed:
            raise ValueError(f"seed {self.seed} differs from the scenario's seed {self.config.seed}")
        if not self.methods:
            raise ValueError("no method given")
        for i, m in enumerate(self.methods):
            if m not in METHOD_NAMES:
                raise ValueError(f"unknown method {m!r}")
            if m in self.methods[:i]:
                raise ValueError(f"method {m!r} given more than once")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_trace(out_dir: Path, method: str, trace: list[AdIterate]) -> None:
    columns = [
        "iter",
        "objective",
        "complementarity",
        "rate_residual",
        "dp_norm",
        "dx_norm",
        "lambda",
        "ad2_rounds",
        "ad2_status",
    ]
    rows = [
        [
            row.index,
            _fmt(row.objective),
            _fmt(row.complementarity),
            _fmt(row.rate_residual),
            _fmt(row.dp_norm),
            _fmt(row.dx_norm),
            _fmt(row.lambda_bar),
            len(row.ad2_trace),
            row.ad2_status,
        ]
        for row in trace
    ]
    csv_path = out_dir / f"trace_{method}.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"# schema: {TRACE_SCHEMA}"])
        writer.writerow(columns)
        writer.writerows(rows)
    _write_json(
        out_dir / f"trace_{method}.json",
        {
            "schema": TRACE_SCHEMA,
            "method": method,
            "rows": [dict(zip(columns, row)) for row in rows],
        },
    )


def emit_selection_report(solution: Solution, prob: EsrProblem):
    """Human-readable and JSON summaries of a successful solve."""
    x = solution.x_star
    selected = [int(i) for i in np.flatnonzero(x >= 0.5)]
    row_power = solution.P_star.sum(axis=1)
    transmit = float(x @ row_power)
    standby = float(prob.cfg.p_rf * x.sum())
    achieved = rate_mod.sum_rate(solution.P_star, x, prob)
    payload = {
        "selected_antennas": selected,
        "n_selected": len(selected),
        "per_antenna_power": [float(p) for p in row_power],
        "achieved_rate": achieved,
        "rate_threshold": prob.r_th,
        "objective": solution.objective,
        "transmit_power": transmit,
        "standby_power": standby,
        "complementarity": solution.complementarity,
        "status": solution.status,
    }
    lines = [
        f"status           : {solution.status}",
        f"selected antennas: {len(selected)} of {prob.n_tx} -> {selected}",
        f"objective        : {solution.objective:.6g}"
        f" (transmit {transmit:.6g} + standby {standby:.6g})",
        f"achieved rate    : {achieved:.6g} (threshold {prob.r_th:.6g})",
        f"complementarity  : {solution.complementarity:.3e}",
    ]
    return "\n".join(lines) + "\n", payload


_RUNNERS = {
    "AD-SBQP": solve,
    "AD-SPen": solve_ad_spen,
    "AD-NSPen": solve_ad_nspen,
}


def _run_method(method: str, prob: EsrProblem):
    """One method on prob; returns (report, solution, trace), the last two
    None for ENUM, which has neither.  An instance too large to enumerate
    gives ENUM the status "too_large" and one line on stderr."""
    if method == "ENUM":
        try:
            report, _, _ = enumerate_selections(prob)
        except EnumerationRefused as exc:
            print(f"ENUM: {exc}", file=sys.stderr)
            report = MethodReport(method, float("nan"), float("nan"), 0, 0.0, "too_large")
        return report, None, None
    solution, trace = _RUNNERS[method](prob)
    report = MethodReport(
        method=method,
        objective=solution.objective,
        complementarity=solution.complementarity,
        iterations=solution.iterations,
        wall_time=0.0,
        status=solution.status,
    )
    return report, solution, trace


def run_compare(manifest: RunManifest):
    """Run every requested method on one shared channel draw.

    Writes manifest.json, comparison.csv (+json), per-method trace files,
    selection reports for successful methods and a timings.json sidecar.
    A method that raises gets a status "error" row with NaN values and its
    traceback in error_<method>.txt (an ENUM refused for size is no error:
    its row has the status "too_large"); the other methods still run and write
    their files.  Returns (reports, all_success).  A scenario that yields no
    valid channel raises build_esr_problem's ValueError before any file is
    written.
    """
    cfg = manifest.config
    prob = build_esr_problem(cfg)
    out = manifest.out_dir
    out.mkdir(parents=True, exist_ok=True)
    sh = scenario_hash(cfg)
    _write_json(
        out / "manifest.json",
        {
            "schema": "adsbqp-manifest-v1",
            "version": manifest.version,
            "scenario_path": manifest.scenario_path,
            "methods": manifest.methods,
            "seed": manifest.seed,
            "scenario_hash": sh,
            "config": dataclasses.asdict(cfg),
        },
    )

    reports: list[MethodReport] = []
    timings = {}
    all_success = True
    for method in manifest.methods:
        t0 = time.perf_counter()
        try:
            report, solution, trace = _run_method(method, prob)
        except Exception:  # one failing method must not lose the others' outputs
            error_path = out / f"error_{method}.txt"
            error_path.write_text(traceback.format_exc())
            print(f"error: {method} failed; traceback in {error_path}", file=sys.stderr)
            report = MethodReport(method, float("nan"), float("nan"), 0, 0.0, "error")
            solution = trace = None
        wall = time.perf_counter() - t0
        report.wall_time = wall
        reports.append(report)
        timings[method] = {"total": wall}
        all_success &= report.status == "success"
        if trace is not None:
            timings[method]["ad1"] = [r.ad1_time for r in trace]
            timings[method]["ad2"] = [r.ad2_time for r in trace]
            _write_trace(out, method, trace)
        if solution is not None and solution.status == "success":
            text, payload = emit_selection_report(solution, prob)
            (out / f"selection_{method}.txt").write_text(text)
            _write_json(out / f"selection_{method}.json", payload)

    with (out / "comparison.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"# schema: {COMPARISON_SCHEMA}"])
        writer.writerow(
            ["method", "objective", "complementarity", "iterations", "time", "status", "scenario_hash"]
        )
        for r in reports:
            writer.writerow(
                [r.method, _fmt(r.objective), _fmt(r.complementarity), r.iterations, _fmt(r.wall_time), r.status, sh]
            )
    _write_json(
        out / "comparison.json",
        {
            "schema": COMPARISON_SCHEMA,
            "scenario_hash": sh,
            "rows": [
                {
                    "method": r.method,
                    "objective": _fmt(r.objective),
                    "complementarity": _fmt(r.complementarity),
                    "iterations": r.iterations,
                    "status": r.status,
                }
                for r in reports
            ],
        },
    )
    _write_json(out / "timings.json", {"schema": "adsbqp-timings-v1", "methods": timings})
    return reports, all_success


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adsbqp",
        description="Joint antenna selection and power allocation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", help="scenario config file (key = value lines)")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--out", default="out", help="output directory")

    p_run = sub.add_parser("run", help="run a single method")
    common(p_run)
    p_run.add_argument("--method", default="AD-SBQP", choices=list(METHOD_NAMES))

    p_cmp = sub.add_parser("compare", help="run several methods on one channel draw")
    common(p_cmp)
    p_cmp.add_argument(
        "--methods",
        default="AD-SBQP,AD-SPen,AD-NSPen",
        help="comma-separated subset of " + ",".join(METHOD_NAMES),
    )

    p_enum = sub.add_parser("enumerate", help="exhaustive ground-truth search")
    common(p_enum)
    p_enum.add_argument("--n-limit", type=int, default=16)
    return parser


def _resolve_config(args) -> ScenarioConfig:
    cfg = load_scenario(args.scenario) if args.scenario else ScenarioConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except (ScenarioParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "enumerate":
        try:
            report, x_best, _ = enumerate_selections(build_esr_problem(cfg), n_limit=args.n_limit)
        except ValueError as exc:  # no valid channel, or too many antennas (EnumerationRefused)
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if report.status != "success":
            print("enumeration: no feasible selection")
            return 1
        print(
            f"ENUM optimum objective {report.objective:.6g} over "
            f"{report.iterations} feasible selections; "
            f"selection {np.flatnonzero(x_best).tolist()}"
        )
        return 0

    methods = [args.method] if args.command == "run" else [
        m.strip() for m in args.methods.split(",") if m.strip()
    ]
    try:
        manifest = RunManifest(
            scenario_path=args.scenario,
            methods=methods,
            seed=cfg.seed,
            out_dir=Path(args.out),
            config=cfg,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        reports, all_success = run_compare(manifest)
    except OSError as exc:  # --out names a file, or the outputs cannot be written
        print(f"error: cannot write the outputs: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # build_esr_problem: the scenario yields no valid channel
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for r in reports:
        print(
            f"{r.method:10s} status={r.status:12s} objective={r.objective:.6g} "
            f"complementarity={r.complementarity:.3e} time={r.wall_time:.2f}s"
        )
    return 0 if all_success else 1


if __name__ == "__main__":
    sys.exit(main())
