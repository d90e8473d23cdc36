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
# monomial packing stays inside ring, groebner, hilbert and conditions,
# and blowup, which reads the fiber cone basis off the packed Rees basis
# and specializes the packed generic Rees basis at a certified point:
# a module above them that reaches into it would fail here.  blowup also
# restricts forms to the line of the coprimality test of conditions, and
# raises the entries of its m-primary span through the generator of the
# span tests of conditions, on the packed monomials of ring, under the
# one bound of conditions on linear-algebra certificates, and reads the
# exponents of packed forms where its Jacobian rules evaluate them.
# families sums the products of its syzygy check, as Poly and the minor
# chain do, with the one kernel of ring that multiplies term dicts.
PRIVATE_IMPORTS = {
    "blowup": {
        "conditions": {"_KERNEL_COLUMNS", "_coprime_pair", "_on_line", "_raised", "_shifted"},
        "groebner": {
            "_basis", "_basis_ideal", "_budget", "_charge", "_gauss_jordan", "_integral",
            "_normalize", "_with_aux_var",
        },
        "ring": {"_MASK", "_is_prime", "_minimal_packed", "_monomials"},
    },
    "cli": {"blowup": {"_form_degree"}},
    "families": {"blowup": {"_gr_ideal"}, "ring": {"_product_sum"}},
    "conditions": {
        "groebner": {"_budget", "_charge", "_gauss_jordan", "_homogeneous", "_integral"},
        "ring": {"_MASK", "_monomials", "_product_sum"},
    },
    "groebner": {
        "hilbert": {"_order_at_one"},
        "ring": {"_MASK", "_WIDTH", "_block_sizes", "_minimal_packed", "_overflow"},
    },
    "hilbert": {"groebner": {"_basis", "_homogeneous"}, "ring": {"_minimal_packed"}},
    "ratmap": {"blowup": {"_form_degree", "_free_fiber_cone", "_x_free_leads"}},
}


def test_private_imports_are_pinned():
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in (ROOT / "src" / "reesdeg").glob("*.py")
    }
    assert private_imports(trees) == PRIVATE_IMPORTS


def engine_imports(tree):
    """Names the module imports from the engine, `reesdeg.groebner`, at
    any level of nesting: the module itself, as `import
    reesdeg.groebner` or `from reesdeg import groebner`, or a name of it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name == "reesdeg.groebner"]
        elif isinstance(node, ast.ImportFrom) and node.module == "reesdeg.groebner":
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "reesdeg":
            found += [a.name for a in node.names if a.name == "groebner"]
    return found


def test_engine_imports_are_found():
    tree = ast.parse(
        "import reesdeg.groebner as g\nfrom reesdeg import ring, groebner\n"
        "from reesdeg.ring import Poly\ndef f():\n    from reesdeg.groebner import _spoly\n"
    )
    assert sorted(engine_imports(tree)) == ["_spoly", "groebner", "reesdeg.groebner"]


def test_certificate_imports_nothing_of_the_engine():
    # the basis certificate of the tests shares no code with what it checks
    path = ROOT / "tests" / "certificate.py"
    assert engine_imports(ast.parse(path.read_text(), filename=str(path))) == []


# Facts about a map that its context (`ratmap.RationalMapSpec`) holds: a
# function takes them from the context, not as an optional argument.
FACT_PARAMETERS = {"rees", "image", "certified", "generic", "special"}


def optional_fact_parameters(tree):
    """`function:parameter` for each parameter named in FACT_PARAMETERS
    that has a default, in every function and method of the module."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += ["%s:%s" % (fn.name, a.arg) for a in defaulted if a.arg in FACT_PARAMETERS]
    return found


def test_optional_fact_parameters_are_found():
    tree = ast.parse(
        "def f(spec, rees, image=None, *, special=None, generic):\n"
        "    def g(certified=False, trials=3):\n"
        "        pass\n"
        "class C:\n"
        "    def m(self, x, rees=None):\n"
        "        pass\n"
    )
    assert sorted(optional_fact_parameters(tree)) == [
        "f:image", "f:special", "g:certified", "m:rees"
    ]


def test_no_optional_fact_parameters():
    found = {}
    for path in sorted((ROOT / "src" / "reesdeg").glob("*.py")):
        names = optional_fact_parameters(ast.parse(path.read_text(), filename=str(path)))
        if names:
            found[path.stem] = names
    assert found == {}


def _cache_size(node):
    """The maxsize of a `functools` cache expression, `lru_cache`,
    `lru_cache(...)` or `cache`, as a decorator or called on a function:
    None when unbounded or not a literal, False when node is no cache."""
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    if name == "cache":
        return None
    if name == "lru_cache":
        return 128
    if isinstance(node, ast.Call) and _cache_size(node.func) == 128:
        given = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
        if not given:
            return 128
        size = given[0]
        return size.value if isinstance(size, ast.Constant) and type(size.value) is int else None
    return False


def unbounded_caches(tree):
    """Names of the functions, classes and bindings that a module caches
    with no finite maxsize."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            sizes = [(node.name, _cache_size(d)) for d in node.decorator_list]
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            size = _cache_size(node.value.func)
            sizes = [(t.id, size) for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [name for name, size in sizes if size is None or size is not False and size < 1]
    return found


def test_unbounded_caches_are_found():
    tree = ast.parse(
        "@lru_cache(maxsize=None)\ndef a(): pass\n"
        "@functools.lru_cache(None)\ndef b(): pass\n"
        "@cache\ndef c(): pass\n"
        "@lru_cache(maxsize=SIZE)\ndef d(): pass\n"
        "@lru_cache(maxsize=64)\ndef e(): pass\n"
        "@lru_cache\ndef f(): pass\n"
        "@dataclass(frozen=True)\nclass G: pass\n"
        "h = lru_cache(maxsize=None)(H)\n"
        "i = lru_cache(maxsize=8)(I)\n"
        "j = len(J)\n"
    )
    assert sorted(unbounded_caches(tree)) == ["a", "b", "c", "d", "h"]


def test_process_wide_caches_are_bounded():
    # every cache of src/ has a finite maxsize, so a long session cannot
    # grow it without limit, but the packings of `ring`: a packing is
    # never rebuilt, so packings compare with `is`
    found = {}
    for path in sorted((ROOT / "src" / "reesdeg").rglob("*.py")):
        names = unbounded_caches(ast.parse(path.read_text(), filename=str(path)))
        if names:
            found[path.stem] = names
    assert found == {"ring": ["_packing"]}


# What reads the environment: every setting of a command is a flag.
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree):
    """`os.<name>` for each read of os.environ or os.getenv (or their
    bytes forms) through the module `os`, and the bare name for each one
    imported from `os`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                found.append("os." + node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [a.name for a in node.names if a.name in ENVIRONMENT_NAMES]
    return found


def test_environment_reads_are_found():
    tree = ast.parse(
        "import os\nfrom os import getenv, path\n"
        "a = os.environ.get('A')\nb = os.getenv('B')\nc = os.path.exists('c')\n"
        "def f():\n    return os.environ['D']\n"
    )
    assert sorted(environment_reads(tree)) == ["getenv", "os.environ", "os.environ", "os.getenv"]


def test_no_environment_variable_is_read():
    # --budget and the other flags are the only settings of a command
    found = {}
    for path in sorted((ROOT / "src" / "reesdeg").rglob("*.py")):
        names = environment_reads(ast.parse(path.read_text(), filename=str(path)))
        if names:
            found[path.stem] = names
    assert found == {}
