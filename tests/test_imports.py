"""Every name a module under src/adsbqp imports is used in that module.

A name counts as used when the module reads it or lists it in __all__.
An import marked ``# noqa: F401`` on its line is exempt: it is kept for
callers that reach the name through the importing module.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "adsbqp"


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
