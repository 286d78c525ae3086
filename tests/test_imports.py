"""Every name a module under src/adsbqp imports is used in that module,
every name its __all__ lists is bound in it, every parameter of a named
function there is read by its body, and the reference oracles in
tests/_oracles.py take no private name from adsbqp.

A name counts as used when the module reads it or lists it in __all__.
An import marked ``# noqa: F401`` on its line is exempt: it is kept for
callers that reach the name through the importing module.  A parameter
counts as read when the function's body, nested functions and lambdas
included, loads its name; lambdas themselves are not scanned, and
UNREAD_ALLOWED names the parameters a callback protocol imposes.  An
oracle that imported a private helper would share the code it is meant to
check.  AD-SBQP and ENUM run without loading scipy, whose LAPACK routines
only the QP's interior point and the barrier NLP load, on first use.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "adsbqp"
ORACLES = Path(__file__).resolve().parent / "_oracles.py"

# (module file, function, parameter) -> why the body need not read it.
UNREAD_ALLOWED = {
    ("baselines.py", "_nspen_ad2", "lambda_bar"):
        "every AD2 step takes (prob, P_bar, x_bar, lambda_bar); the nonlinear model needs no multiplier",
    ("nlp.py", "aug_grad", "y"): "an NlpProblem gradient callback takes the point; this one is constant",
    ("nlp.py", "aug_hess", "y"): "an NlpProblem Hessian callback takes the point; this one is constant",
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def unbound_exports(source: str) -> list[str]:
    """Names the source's __all__ lists that its top level never binds (by
    def, class, import or assignment)."""
    bound, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                bound |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
                if isinstance(target, ast.Name) and target.id == "__all__":
                    exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


def unread_parameters(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for each parameter of a named function that its
    body never loads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.name, p.arg) for p in params if p.arg not in read]
    return found


def private_package_names(source: str) -> list[str]:
    """Underscore-prefixed names the source imports from adsbqp, or reads as
    attributes of a name it imported from adsbqp (dunders aside)."""
    tree = ast.parse(source)
    roots, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots |= {alias.asname or "adsbqp" for alias in node.names if alias.name.split(".")[0] == "adsbqp"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "adsbqp":
            for alias in node.names:
                roots.add(alias.asname or alias.name)
                if alias.name.startswith("_"):
                    found.append(f"{alias.name} (line {node.lineno})")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.endswith("__"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in roots:
                found.append(f"{ast.unparse(node)} (line {node.lineno})")
    return found


def test_no_unused_imports_in_the_package():
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}


def test_scan_sees_unused_names_and_honours_noqa():
    source = (
        "from dataclasses import dataclass, field\n"
        "import numpy as np\n"
        "from os import path  # noqa: F401\n"
        "__all__ = ['exported']\n"
        "from json import exported\n"
        "x = np.zeros(1)\n"
    )
    assert unused_imports(source) == ["dataclass (line 1)", "field (line 1)"]


def test_every_exported_name_in_the_package_is_bound():
    # __init__.py included: adsbqp.__all__ as well as each module's.
    found = {path.name: unbound for path in sorted(PACKAGE.glob("*.py"))
             if (unbound := unbound_exports(path.read_text()))}
    assert found == {}


def test_export_scan_sees_a_stale_name():
    source = (
        "from json import dumps\n"
        "import os.path\n"
        "__all__ = ['dumps', 'os', 'AdTrace', 'K', 'f', 'X', 'Y', 'rate_reachable']\n"
        "class K:\n"
        "    AdTrace = 1\n"
        "def f():\n"
        "    rate_reachable = 2\n"
        "X: int = 1\n"
        "Y, Z = 1, 2\n"
    )
    assert unbound_exports(source) == ["AdTrace", "rate_reachable"]


def test_every_parameter_in_the_package_is_read():
    found = [(path.name, func, param)
             for path in sorted(PACKAGE.glob("*.py"))
             for func, param in unread_parameters(path.read_text())]
    assert [f for f in found if f not in UNREAD_ALLOWED] == []
    assert sorted(set(UNREAD_ALLOWED) - set(found)) == []  # no stale exemption


def test_parameter_scan_sees_unread_names_and_skips_lambdas():
    source = (
        "def f(a, b, *args, c, **kwargs):\n"
        "    def inner(d):\n"
        "        return a\n"
        "    b = 1\n"
        "    return lambda e: c\n"
        "class K:\n"
        "    def method(self, g):\n"
        "        return self\n"
    )
    assert unread_parameters(source) == [
        ("f", "b"), ("f", "args"), ("f", "kwargs"), ("inner", "d"), ("method", "g")]


def test_the_oracles_take_no_private_name_from_the_package():
    assert private_package_names(ORACLES.read_text()) == []


def test_private_name_scan_sees_imports_and_attributes():
    source = (
        "from adsbqp.qp import QpSolution, _residual\n"
        "from adsbqp import rate as rate_mod, _hidden\n"
        "import adsbqp.nlp\n"
        "import numpy as np\n"
        "x = rate_mod._snr_weights, adsbqp.nlp._helper, np._core, rate_mod.__name__, QpSolution.x\n"
    )
    assert sorted(private_package_names(source)) == [
        "_hidden (line 2)", "_residual (line 1)",
        "adsbqp.nlp._helper (line 5)", "rate_mod._snr_weights (line 5)"]


NO_SCIPY_SCRIPT = """
import sys
import adsbqp
from adsbqp import baselines, driver, rate
from adsbqp.channel import ScenarioConfig

def problem(n):
    return rate.build_esr_problem(ScenarioConfig(n_tx=n, n_users=n, seed=0, r_th_mode="fraction",
                                                 r_th_value=0.5, noise_n0b=3e-14))

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert driver.solve(problem(16))[0].status == "success"
assert baselines.enumerate_selections(problem(8))[0].status == "success"
assert scipy_modules() == [], scipy_modules()
sol, _ = baselines.solve_ad_spen(problem(2))
assert sol.objective > 0.0 and sol.complementarity >= 1e-9, sol
assert "scipy.linalg" in scipy_modules()
"""


def test_ad_sbqp_and_enum_load_no_scipy():
    # A fresh interpreter: pytest's filterwarnings entry imports scipy.linalg
    # into this process.  AD-SPen's barrier then loads scipy's LAPACK.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
