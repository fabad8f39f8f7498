"""Every name the package exports, and every dataclass field, is used by the program.

A name that only tests call is a helper the run never executes, and a field
that no module reads holds a value nothing reports; the few of either that
serve readers outside the package are listed with their reason.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import ebk

SRC = Path(ebk.__file__).parent
# Called from outside the package only: the convergence study is a library
# entry point, and green_area is the independent Stokes reference of actions.
ENTRY_POINTS = {"convergence_study", "green_area"}
# Dataclass fields that no module of the package reads, and who reads them.
UNREAD_FIELDS = {
    ("ConvergenceReport", "max_errs"): "the benchmark's quartic_convergence check",
    ("ConvergenceReport", "slope"): "the benchmark's quartic_convergence check",
    ("ConvergenceReport", "floor_limited"): "the benchmark's quartic_convergence check",
    ("BasisRun", "basis_sizes"): "library callers of solve_basis: the pair its levels came from",
}


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


def _dataclass_fields() -> set[tuple[str, str]]:
    fields = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"ebk.{path.stem}")
        for name, cls in vars(module).items():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                if dataclasses.is_dataclass(cls):
                    fields |= {(name, f.name) for f in dataclasses.fields(cls)}
    return fields


def _attributes_read() -> set[str]:
    return {
        node.attr
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_dataclass_field_is_read_by_the_program():
    fields = _dataclass_fields()
    assert set(UNREAD_FIELDS) <= fields
    read = _attributes_read()
    unread = {f for f in fields if f[1] not in read} - set(UNREAD_FIELDS)
    assert not unread, f"dataclass fields no module reads: {sorted(unread)}"
