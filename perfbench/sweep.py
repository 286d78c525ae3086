"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workload sbqp-16 --seeds 0-9 [--seconds 30] [--trace 0]

For every metric: the median over the seeds and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, which is how run-to-run steadiness is judged against the
bounds in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        line = {k: round(v["value"], 5) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {line}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) < 2 or med == 0:
            print(f"{name}: median {med!r}")
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        bound = f" (bound {bounds[name]})" if name in bounds else ""
        print(f"{name}: median {med:.6g} spread {(q3 - q1) / med:.4f}{bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
