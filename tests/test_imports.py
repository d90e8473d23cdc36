"""Lint check without a linter: every name a module binds with a
top-level import is used somewhere in that module.  Covers src/, tests/
and demos/, parsed with the standard `ast` module."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports(tree):
    """Names bound by the module's top-level imports that no expression
    in the module reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_are_found():
    tree = ast.parse("import os\nimport a.b\nfrom m import c as d, e\nprint(a.b.f, e)\n")
    assert unused_imports(tree) == ["os", "d"]


def test_no_unused_top_level_imports():
    found = {}
    for top in ("src", "tests", "demos"):
        for path in sorted((ROOT / top).rglob("*.py")):
            names = unused_imports(ast.parse(path.read_text(), filename=str(path)))
            if names:
                found[str(path.relative_to(ROOT))] = names
    assert found == {}
