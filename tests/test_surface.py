"""Every public top-level function, class or constant in src/ is read in
src/ or is exported from the package, and every public method of a class
there is read as an attribute (x.name) in src/, so no idle API accumulates.
A bare name does not count for a method: a local variable of the same name
would hide it.  No module in src/ imports another's private (_name) names:
what two modules share is public.  So every private top-level name is read
in its own module, and a helper goes when its last caller does.  Every name
a module in src/ imports is read in that module or re-exported by the
package, so code that is deleted takes its imports with it.  Every dataclass
in src/ is frozen: results are built once and only read."""

import ast
from pathlib import Path

import harmonia

SRC = Path(__file__).resolve().parents[1] / "src" / "harmonia"


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _public_names(node: ast.stmt) -> list[str]:
    return [name for name in _defined_names(node) if not name.startswith("_")]


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


def _idle_private_names(path: Path) -> list[str]:
    """The private (_name, not __dunder__) top-level names that the module at
    path defines and never reads; no other module may import them."""
    tree = ast.parse(path.read_text())
    defined = {
        name
        for node in tree.body
        for name in _defined_names(node)
        if name.startswith("_") and not name.endswith("__")
    }
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(defined - read)


def test_no_idle_private_definitions():
    found = {path.name: _idle_private_names(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: idle for name, idle in found.items() if idle} == {}


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


def _idle_imports(path: Path) -> list[str]:
    """Names that the module at path imports and never reads; the package's
    __init__ may import a name only to list it in __all__."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    if path.name == "__init__.py":
        read |= set(harmonia.__all__)
    return sorted(imported - read)


def test_no_idle_imports():
    found = {path.name: _idle_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: idle for name, idle in found.items() if idle} == {}


def _unfrozen_dataclasses(path: Path) -> list[str]:
    """Classes in the module at path decorated with @dataclass without
    frozen=True."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            call = isinstance(deco, ast.Call)
            if ast.unparse(deco.func if call else deco).split(".")[-1] != "dataclass":
                continue
            keywords = deco.keywords if call else []
            if not any(kw.arg == "frozen" and ast.unparse(kw.value) == "True" for kw in keywords):
                found.append(node.name)
    return found


def test_every_dataclass_is_frozen():
    found = {path.name: _unfrozen_dataclasses(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: classes for name, classes in found.items() if classes} == {}
