"""Lint checks without a linter, parsed with the standard `ast` module.
Every name a module binds with a top-level import is used somewhere in
that module (src/, tests/ and demos/).  An import inside a function of
src/ breaks an import cycle: it is a relative import of a sibling module
that imports this module at top level."""

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


def _module_name(node):
    if isinstance(node, ast.ImportFrom):
        return "." * node.level + (node.module or "")
    return node.names[0].name


def top_level_modules(tree):
    """Modules the module imports at top level, relative ones as `.name`."""
    return {_module_name(n) for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))}


def function_level_imports(tree):
    """(line, module) of every import made inside a function."""
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.add((node.lineno, _module_name(node)))
    return sorted(found)


def imports_breaking_no_cycle(trees):
    """`module:line imported` for each function-level import among the
    sibling modules `trees` (name to parsed module) that is not a
    relative import of a sibling importing that module at top level."""
    bad = []
    for name, tree in sorted(trees.items()):
        for line, target in function_level_imports(tree):
            sibling = trees.get(target[1:]) if target.startswith(".") else None
            if sibling is None or "." + name not in top_level_modules(sibling):
                bad.append("%s:%d %s" % (name, line, target))
    return bad


def test_imports_breaking_no_cycle_are_found():
    trees = {
        "a": ast.parse("from .b import f\ndef g():\n    from .c import h\n    import re\n"),
        "b": ast.parse("def f():\n    from .a import g\n"),
        "c": ast.parse("import os\n"),
    }
    assert imports_breaking_no_cycle(trees) == ["a:3 .c", "a:4 re"]


def test_function_level_imports_break_cycles():
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in (ROOT / "src" / "reesdeg").glob("*.py")
    }
    assert imports_breaking_no_cycle(trees) == []


def private_imports(trees):
    """{module: {sibling: private names}} that the sibling modules
    `trees` (name to parsed module) import from each other, at any
    level of nesting."""
    found = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                private = {a.name for a in node.names if a.name.startswith("_")}
                if private:
                    found.setdefault(name, {}).setdefault(node.module, set()).update(private)
    return found


def test_private_imports_are_found():
    trees = {
        "a": ast.parse("from .b import f, _g\ndef h():\n    from .c import _k as k\n"),
        "b": ast.parse("from os import _exit\nfrom .a import h\n"),
    }
    assert private_imports(trees) == {"a": {"b": {"_g"}, "c": {"_k"}}}


# Private names one module of src/reesdeg imports from another.  The
# monomial packing stays inside ring, groebner, hilbert and conditions: a
# module above them that reaches into it would fail here.
PRIVATE_IMPORTS = {
    "blowup": {"groebner": {"_budget", "_charge", "_drop_aux_var", "_with_aux_var"}},
    "cli": {"blowup": {"_form_degree"}},
    "conditions": {"groebner": {"_budget", "_charge", "_homogeneous"}, "ring": {"_overflow"}},
    "groebner": {
        "hilbert": {"_order_at_one"},
        "ring": {"_MASK", "_WIDTH", "_minimal_packed", "_normalize_order", "_overflow", "_packing"},
    },
    "hilbert": {"groebner": {"_basis", "_homogeneous"}, "ring": {"_minimal_packed"}},
    "ratmap": {"blowup": {"_fiber_cone_summary", "_form_degree"}},
}


def test_private_imports_are_pinned():
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in (ROOT / "src" / "reesdeg").glob("*.py")
    }
    assert private_imports(trees) == PRIVATE_IMPORTS
