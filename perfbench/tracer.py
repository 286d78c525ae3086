"""Spans around calls into adsbqp's public functions, recorded from outside.

The package's modules import these functions by name (``from .nlp import
solve_barrier``) and ``cli._RUNNERS`` holds them in a dict, so replacing one
module attribute would miss most calls.  ``Tracer.install`` therefore
replaces the function object at every module-level binding and every
module-level dict value inside the package, which also covers the mutual
recursion between ``nlp.solve_barrier`` and ``nlp.find_strictly_feasible``.
``Tracer.uninstall`` puts every original object back.

Spans stay in memory; the benchmark writes them out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

# (module, function) pairs timed at every call site.
TRACED = (
    ("channel", "generate_channel"),
    ("rate", "build_esr_problem"),
    ("rate", "sum_rate"),
    ("rate", "grad_rate_wrt_power"),
    ("rate", "hess_rate_wrt_switch"),
    ("qp", "solve_qp"),
    ("nlp", "solve_barrier"),
    ("nlp", "find_strictly_feasible"),
    ("bqp", "solve_bqp"),
    ("driver", "solve"),
    ("driver", "ad1"),
    ("driver", "build_ad2_subproblem"),
    ("baselines", "enumerate_selections"),
    ("baselines", "solve_ad_spen"),
    ("baselines", "solve_ad_nspen"),
    ("cli", "run_compare"),
)

_NLP = ("nlp.solve_barrier", "nlp.find_strictly_feasible")


def _work(name: str, result):
    """(work count, flagged) read from a traced call's return value."""
    if name in ("qp.solve_qp", "nlp.solve_barrier"):
        return result.iterations, result.status != "optimal"
    if name == "bqp.solve_bqp":
        return len(result.trace), result.status != "success"
    if name in ("driver.solve", "baselines.solve_ad_spen", "baselines.solve_ad_nspen"):
        return result[0].iterations, False
    return 0, False


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    instance: int
    outermost: bool  # no enclosing span of the same name
    work: int = 0
    flagged: bool = False
    error: str = ""


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "adsbqp" or name.startswith("adsbqp."))]


class Tracer:
    """Records one span per traced call while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance = -1
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object, bool]] = []

    def _wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.instance, active[name] == 0)
            spans.append(span)
            stack.append(idx)
            active[name] += 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                active[name] -= 1
                stack.pop()
            span.work, span.flagged = _work(name, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import adsbqp  # noqa: F401  (loads every submodule)

        modules = _package_modules()
        originals = {}
        for mod, fn in TRACED:
            original = getattr(sys.modules[f"adsbqp.{mod}"], fn)
            originals[id(original)] = self._wrap(f"{mod}.{fn}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    self._patches.append((module, attr, value, False))
                    setattr(module, attr, originals[id(value)])
                elif type(value) is dict and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in originals:
                            self._patches.append((value, key, item, True))
                            value[key] = originals[id(item)]

    def uninstall(self) -> None:
        for container, key, original, is_dict in reversed(self._patches):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV: name, start, end, parent, instance, work, error."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,instance,work,error\n")
            for s in self.spans:
                fh.write(f"{s.name},{s.start:.9f},{s.end:.9f},{s.parent},{s.instance},{s.work},{s.error}\n")


def installed_wrappers() -> list[str]:
    """Bindings inside the package that still hold a tracing wrapper."""
    found = []
    for module in _package_modules():
        for attr, value in vars(module).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{module.__name__}.{attr}")
            elif type(value) is dict and not attr.startswith("__"):
                found += [f"{module.__name__}.{attr}[{k!r}]" for k, v in value.items()
                          if hasattr(v, "__perfbench_original__")]
    return found


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals: calls, inclusive time, self time and counts.

    Inclusive time sums only spans not nested in a span of the same name, so
    the recursion inside ``nlp`` is not counted twice; self time is a span's
    duration minus that of its direct children.
    """
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    work = defaultdict(int)
    flagged = defaultdict(int)
    errors = defaultdict(lambda: defaultdict(int))
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    under_ad1 = [False] * len(spans)
    under_nlp = [False] * len(spans)
    switch_nlp_s = 0.0
    for i, s in enumerate(spans):
        dur = s.end - s.start
        calls[s.name] += 1
        if s.outermost:
            incl[s.name] += dur
        self_s[s.name] += dur - child[i]
        work[s.name] += s.work
        flagged[s.name] += s.flagged
        if s.error:
            errors[s.name][s.error] += 1
        if s.parent >= 0:
            p = spans[s.parent]
            under_ad1[i] = under_ad1[s.parent] or p.name == "driver.ad1"
            under_nlp[i] = under_nlp[s.parent] or p.name in _NLP
        if s.name in _NLP and not under_ad1[i] and not under_nlp[i]:
            switch_nlp_s += dur

    def ratio(a, b):
        return a / b if b else 0.0

    ad1_infeasible = errors["driver.ad1"]["Ad1InfeasibleError"]
    ad1_ok = calls["driver.ad1"] - sum(errors["driver.ad1"].values())
    return {
        "channel.generate_channel.s": incl["channel.generate_channel"],
        "rate.build_esr_problem.s": incl["rate.build_esr_problem"],
        "driver.ad1.calls": calls["driver.ad1"],
        "driver.ad1.s": incl["driver.ad1"],
        "driver.ad1.infeasible": ad1_infeasible,
        "driver.ad1.feasible_ratio": ratio(ad1_ok, calls["driver.ad1"]),
        "nlp.solve_barrier.calls": calls["nlp.solve_barrier"],
        "nlp.solve_barrier.newton_steps": work["nlp.solve_barrier"],
        "nlp.solve_barrier.s": incl["nlp.solve_barrier"],
        "nlp.solve_barrier.self_s": self_s["nlp.solve_barrier"],
        "nlp.solve_barrier.nonoptimal": flagged["nlp.solve_barrier"],
        "nlp.solve_barrier.raised": sum(errors["nlp.solve_barrier"].values()),
        "nlp.newton_steps_per_call": ratio(work["nlp.solve_barrier"], calls["nlp.solve_barrier"]),
        "nlp.find_strictly_feasible.calls": calls["nlp.find_strictly_feasible"],
        "nlp.find_strictly_feasible.s": incl["nlp.find_strictly_feasible"],
        "baselines.switch_nlp_s": switch_nlp_s,
        "qp.solve_qp.calls": calls["qp.solve_qp"],
        "qp.solve_qp.iters": work["qp.solve_qp"],
        "qp.solve_qp.s": incl["qp.solve_qp"],
        "qp.solve_qp.nonoptimal": flagged["qp.solve_qp"],
        "qp.iters_per_call": ratio(work["qp.solve_qp"], calls["qp.solve_qp"]),
        "bqp.solve_bqp.calls": calls["bqp.solve_bqp"],
        "bqp.solve_bqp.rounds": work["bqp.solve_bqp"],
        "bqp.solve_bqp.s": incl["bqp.solve_bqp"],
        "bqp.solve_bqp.self_s": self_s["bqp.solve_bqp"],
        "bqp.solve_bqp.nonsuccess": flagged["bqp.solve_bqp"],
        "bqp.rounds_per_call": ratio(work["bqp.solve_bqp"], calls["bqp.solve_bqp"]),
        "driver.build_ad2_subproblem.calls": calls["driver.build_ad2_subproblem"],
        "driver.build_ad2_subproblem.s": incl["driver.build_ad2_subproblem"],
        "driver.solve.s": incl["driver.solve"],
        "driver.ad_iters": work["driver.solve"],
        "rate.sum_rate.calls": calls["rate.sum_rate"],
        "rate.sum_rate.s": incl["rate.sum_rate"],
        "rate.grad_rate_wrt_power.calls": calls["rate.grad_rate_wrt_power"],
        "rate.hess_rate_wrt_switch.calls": calls["rate.hess_rate_wrt_switch"],
        "rate.hess_rate_wrt_switch.s": incl["rate.hess_rate_wrt_switch"],
        "baselines.enumerate_selections.s": incl["baselines.enumerate_selections"],
        "baselines.solve_ad_spen.s": incl["baselines.solve_ad_spen"],
        "baselines.solve_ad_nspen.s": incl["baselines.solve_ad_nspen"],
        "baselines.ad_iters": work["baselines.solve_ad_spen"] + work["baselines.solve_ad_nspen"],
        "cli.run_compare.s": incl["cli.run_compare"],
        "cli.run_compare.self_s": self_s["cli.run_compare"],
    }
