"""Every public top-level function, class or constant in src/ is read in
src/ or is exported from the package, and every public method of a class
there is read as an attribute (x.name) in src/, so no idle API accumulates.
A bare name does not count for a method: a local variable of the same name
would hide it.  No module in src/ imports another's private (_name) names:
what two modules share is public."""

import ast
from pathlib import Path

import harmonia

SRC = Path(__file__).resolve().parents[1] / "src" / "harmonia"


def _public_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _public_methods(node: ast.stmt) -> list[str]:
    if not isinstance(node, ast.ClassDef):
        return []
    return [
        f"{node.name}.{n.name}"
        for n in node.body
        if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")
    ]


def test_no_idle_public_definitions():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    loads = [
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]
    attributes = {node.attr for node in loads if isinstance(node, ast.Attribute)}
    used = set(harmonia.__all__) | attributes
    used |= {node.id for node in loads if isinstance(node, ast.Name)}
    defined = {name for tree in trees for node in tree.body for name in _public_names(node)}
    assert sorted(defined - used) == []
    methods = {name for tree in trees for node in tree.body for name in _public_methods(node)}
    assert sorted(m for m in methods if m.split(".")[1] not in attributes) == []


def _private_imports(tree: ast.Module) -> list[str]:
    return [
        f"{node.module or '.'}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "harmonia")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


def test_no_private_names_across_modules():
    found = {
        path.name: _private_imports(ast.parse(path.read_text()))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: imports for name, imports in found.items() if imports} == {}
