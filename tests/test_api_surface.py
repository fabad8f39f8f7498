"""Every name the package exports is used by the program itself.

A name that only tests call is a helper the run never executes; the two
entry points that no module calls stay exported on purpose.
"""

import ast
from pathlib import Path

import ebk

SRC = Path(ebk.__file__).parent
# Called from outside the package only: the convergence study is a library
# entry point, and green_area is the independent Stokes reference of actions.
ENTRY_POINTS = {"convergence_study", "green_area"}


def _exported() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _referenced() -> set[str]:
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_used_by_the_program():
    unused = _exported() - _referenced() - ENTRY_POINTS
    assert not unused, f"exported but only reachable from outside the package: {sorted(unused)}"
