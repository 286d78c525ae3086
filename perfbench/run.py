"""adsbqp benchmark: seeded closed-loop workloads with correctness checks.

    python3 perfbench/run.py --workload sbqp-16 --seed 0 --seconds 20 --trace 0

One client, one instance at a time: the next instance starts only after the
previous one has finished and been checked.  Instances come from ``--seed``
(the same seed gives the same instances); the program is built from the
``src/`` tree of the checkout this file sits in.

Times are CPU seconds of this process scaled to a reference speed, and BLAS
runs one thread: on a shared host with few cores, wall time and
multi-threaded BLAS measure the other tenants' load (CPU steal) more than the
program, and even CPU time drifts with it.  Raw CPU and wall-clock figures
are kept in the detail record.

With ``--trace 0`` the run is timed with tracing off and reports the
end-to-end metrics.  With ``--trace 1`` a fixed number of instances is run
once untraced and once traced; the traced pass gives the per-layer metrics,
and the difference between the two passes is the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit, plus a detail record with the environment.
"""

import os
import time

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Set before numpy is imported, here and in the set-up probes this process
# starts.  With the library default (one thread per core, 2 here) a 16x16
# AD-SBQP solve is several times slower and its wall time follows the host's
# CPU steal; see README.md.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Set-up is measured in this process and in SETUP_SAMPLES - 1 fresh
# processes; the median is reported, because one sample is noisy.
SETUP_SAMPLES = 3
# Every timed run samples the host's speed with a short fixed numpy kernel
# that does not use adsbqp, and multiplies the CPU times it reports by
# REFERENCE_CPU_S / (the kernel's median CPU time in that process).  The
# host's speed swings by up to 2x within seconds and drifts by up to 1.7x
# within an hour as other tenants' load changes; the kernel follows it.  A
# wall-clock timer (SIGALRM) runs one pass every SAMPLE_EVERY_S, so that
# samples fall inside the long solves too, and the passes' CPU time is left
# out of the solve times.  (A CPU-time timer would coarsen process_time to
# the kernel's tick while it is armed.)  REFERENCE_CPU_S is a round figure
# near one pass's CPU time on the 2-core x86-64 host of the parent numbers
# in README.md (0.0034-0.0045 s), so scaled times read as seconds on a host
# a little faster than that one.
REFERENCE_CPU_S = 0.003
SAMPLE_EVERY_S = 0.2
MIN_REFERENCE_PASSES = 100
END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_cpu_s": "1/s",
    "solve_cpu_s_p50": "s",
    "objective_mean": "pu",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last == "feasible_ratio" or last.endswith("_per_call"):
        return "ratio"
    if last == "bytes_written":
        return "bytes"
    if last in ("s", "self_s", "switch_nlp_s", "overhead_s"):
        return "s"
    return "count"


def import_program():
    """Import adsbqp from this checkout's src/, or exit without a result."""
    if not (SRC / "adsbqp" / "__init__.py").is_file():
        raise SystemExit(f"error: no adsbqp package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import adsbqp

    if Path(adsbqp.__file__).resolve().parent != (SRC / "adsbqp").resolve():
        raise SystemExit(f"error: adsbqp was imported from {adsbqp.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


class Reference:
    """The reference kernel and the passes timed in this process.

    One pass is two dense 256x256 solves (the size of AD1's Newton system at
    16x16) and 300 small-array updates (the interpreter-bound per-call cost
    that dominates ENUM and the switch NLPs), about half the time each."""

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((256, 256))
        self.a = a @ a.T + 256.0 * np.eye(256)
        self.b = rng.standard_normal(256)
        self.v = rng.random(16)
        self.passes: list[tuple[float, float]] = []  # (dense, updates) CPU seconds
        self.spent = 0.0  # CPU seconds spent in passes
        self.finite = True

    def run_pass(self, *_signal_args) -> None:
        np = self.np
        t0 = time.process_time()
        acc = 0.0
        for _ in range(2):
            acc += float(np.linalg.solve(self.a, self.b) @ self.b)
        t1 = time.process_time()
        v = self.v
        for _ in range(300):
            v = np.log2(1.0 + 0.5 * v) + 0.1
            acc += float(v.sum())
        t2 = time.process_time()
        # Never raise here: this also runs as a signal handler inside adsbqp.
        self.finite = self.finite and math.isfinite(acc)
        self.passes.append((t1 - t0, t2 - t1))
        self.spent += time.process_time() - t0

    def clock(self) -> float:
        """Process CPU time not spent in reference passes."""
        while True:  # retry if a pass ran between the two reads
            spent = self.spent
            now = time.process_time()
            if spent == self.spent:
                return now - spent

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self.run_pass)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self.previous)

    def median_cpu_s(self) -> float:
        """Median CPU seconds of one pass, after topping up to
        MIN_REFERENCE_PASSES passes."""
        while len(self.passes) < MIN_REFERENCE_PASSES:
            self.run_pass()
        if not self.finite:
            raise SystemExit("error: reference kernel produced a non-finite value")
        return statistics.median(sum(p) for p in self.passes)


def set_up(workload, seed: int, count: int, work_dir: Path, tracer=None):
    """Build the instances and run the untimed warm-up solve.

    Returns (instances, warm-up outcome, CPU seconds since process start)."""
    import workloads

    if tracer is not None:
        tracer.install()
    try:
        instances = [workload.build(workloads.instance_seed(seed, i), work_dir) for i in range(count)]
    finally:
        if tracer is not None:
            tracer.uninstall()
    _, warm = workloads.run_instance(workload, workload.warmup_instance(work_dir))
    return instances, warm, time.process_time()


def probe_setup(args) -> tuple[float, float]:
    """Set-up CPU time of a fresh process running the same workload and seed,
    and the median CPU time of the reference kernel in that process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return float(probe["setup_cpu_s"]), float(probe["reference_cpu_s"])


def tail(durations: list[float]):
    """Time at the highest percentile with at least ten samples above it."""
    n = len(durations)
    if n < 20:
        return None
    return {"value": sorted(durations)[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def finite(value: float):
    return value if math.isfinite(value) else None


def timed_run(args, workload, work_dir: Path):
    import workloads

    instances, warm, setup0 = set_up(workload, args.seed, workload.pool, work_dir)
    durations, outcomes = [], []
    start = time.perf_counter()
    i = 0
    with Reference() as ref:
        while True:
            cpu_s, outcome = workloads.run_instance(workload, instances[i % len(instances)], clock=ref.clock)
            durations.append(cpu_s)
            outcomes.append(outcome)
            i += 1
            if time.perf_counter() - start >= args.seconds:
                break
    wall = time.perf_counter() - start
    sampled = len(ref.passes)
    reference = ref.median_cpu_s()
    objectives, quality_problems = workloads.quality_objectives(workload)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = REFERENCE_CPU_S / reference
    setup_samples = [setup0 * scale]
    for _ in range(SETUP_SAMPLES - 1):
        setup_cpu, probe_reference = probe_setup(args)
        setup_samples.append(setup_cpu * REFERENCE_CPU_S / probe_reference)

    problems = [warm.problems] + [o.problems for o in outcomes] + quality_problems
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "instances_per_cpu_s": len(durations) / (math.fsum(durations) * scale),
        "solve_cpu_s_p50": statistics.median(durations) * scale,
        "objective_mean": finite(statistics.fmean(objectives)),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "instances": len(durations),
        "timed_wall_s": wall,
        "instances_per_s": len(durations) / wall,
        "reference_cpu_s": reference,
        "reference_passes": len(ref.passes),
        "reference_passes_in_loop": sampled,
        "reference_parts_cpu_s": [statistics.median(p[k] for p in ref.passes) for k in (0, 1)],
        "solve_cpu_s_raw": durations,
        "solve_cpu_s_tail": tail([d * scale for d in durations]),
        "setup_s_samples": setup_samples,
        "quality_objectives": objectives,
    }
    gaps = [o.gap for o in outcomes if o.gap is not None]
    if gaps:
        extra["enum_gap_mean"] = statistics.fmean(gaps)
        extra["enum_gap_max"] = max(gaps)
    return metrics, END_TO_END_UNITS, problems, extra


def traced_run(args, workload, work_dir: Path):
    import workloads
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    instances, warm, _ = set_up(workload, args.seed, workload.traced, work_dir, tracer)

    # Each instance runs once untraced and once traced, alternating which goes
    # first, so that warm caches favour neither pass in the overhead estimate.
    # Spans are wall-clock, so shares are of traced wall time; the overhead is
    # taken in CPU time, like the end-to-end metrics.
    untraced, traced = [], []
    untraced_wall = traced_wall = untraced_cpu = traced_cpu = 0.0
    for k, inst in enumerate(instances):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                tracer.instance = k
                tracer.install()
            try:
                start = time.perf_counter()
                cpu_s, outcome = workloads.run_instance(workload, inst)
                wall = time.perf_counter() - start
            finally:
                tracer.uninstall()
            if with_trace:
                traced.append(outcome)
                traced_wall += wall
                traced_cpu += cpu_s
            else:
                untraced.append(outcome)
                untraced_wall += wall
                untraced_cpu += cpu_s

    metrics = layer_metrics(tracer.spans)
    metrics["cli.bytes_written"] = sum(o.bytes_written for o in traced)
    metrics["trace.overhead_s"] = traced_cpu - untraced_cpu
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(spans_path)

    same = [repr((a.objective, a.problems)) == repr((b.objective, b.problems)) for a, b in zip(untraced, traced)]
    problems = [warm.problems] + [o.problems for o in untraced + traced]
    if not all(same):
        problems.append(["traced and untraced passes disagree"])
    top = ("driver.solve.s", "driver.ad1.s", "bqp.solve_bqp.s", "qp.solve_qp.s", "nlp.solve_barrier.s",
           "baselines.enumerate_selections.s", "baselines.solve_ad_spen.s", "baselines.solve_ad_nspen.s",
           "cli.run_compare.s", "rate.sum_rate.s", "rate.hess_rate_wrt_switch.s", "baselines.switch_nlp_s")
    extra = {
        "instances": len(instances),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "traced_cpu_s": traced_cpu,
        "untraced_cpu_s": untraced_cpu,
        "shares_of_traced_wall": {name: metrics[name] / traced_wall for name in top},
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(HERE.parent)),
    }
    units = {name: layer_unit(name) for name in metrics}
    return metrics, units, problems, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    workload = workloads.WORKLOADS[args.workload]
    work_dir = OUT / f"work-{os.getpid()}"

    try:
        if args.setup_probe:
            _, warm, setup_cpu_s = set_up(workload, args.seed, workload.pool, work_dir)
            if warm.problems:
                raise SystemExit(f"error: warm-up failed: {warm.problems}")
            reference = Reference().median_cpu_s()
            print(json.dumps({"setup_cpu_s": setup_cpu_s, "reference_cpu_s": reference}))
            return 0
        run = traced_run if args.trace else timed_run
        metrics, units, problems, extra = run(args, workload, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(problems)
    failed = sum(1 for p in problems if p)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_frac": failed / attempted,
        "failures": [p for p in problems if p][:10],
        "environment": environment(),
        **extra,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=2) + "\n"
    )
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value!r} {units[name]}")
    print(f"{args.workload} failed_frac = {failed / attempted!r} ratio ({failed} of {attempted})")
    if "solve_cpu_s_tail" in extra:
        print(f"{args.workload} instances_per_s = {extra['instances_per_s']!r} 1/s (wall clock)")
        t = extra["solve_cpu_s_tail"]
        print(f"{args.workload} solve_cpu_s_tail = " + (
            f"{t['value']!r} s (p{t['percentile']:.1f}, {t['samples']} samples)" if t
            else f"omitted ({extra['instances']} instances < 20)"))
    for name in ("enum_gap_mean", "enum_gap_max"):
        if name in extra:
            print(f"{args.workload} {name} = {extra[name]!r} ratio")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
