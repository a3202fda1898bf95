"""Every public top-level function or class in src/ has a caller in src/ or
is exported from the package, so no idle API accumulates."""

import ast
from pathlib import Path

import harmonia

SRC = Path(__file__).resolve().parents[1] / "src" / "harmonia"

# reference oracles kept for the tests to compare the fast paths against
ORACLES = {"borho_bound", "check_cook", "check_divisibility", "enumerate_instances"}


def test_no_idle_public_definitions():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    used = set(harmonia.__all__) | ORACLES
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert sorted(defined - used) == []
