"""Span tracer that wraps reesdeg's public functions from the outside.

Every public module-level function of every ``reesdeg`` module, and the
arithmetic methods of ``Poly``, is replaced by a wrapper that records a
span (name, start, end, parent span, operation id).  The replacement is
made in every ``reesdeg.*`` namespace that binds the function, and in
module-level dicts such as the CLI's handler table, because modules
import names from each other.  Per-term primitives (``monomial_*``,
``RingCtx.key``/``negkey``) are not wrapped: they run per monomial and
would dominate the traced time.

Spans stay in memory and are written out by ``write_spans`` at the end.
A few wrappers also read arguments and results to count work that the
library does not report itself (fiber trials, cache hits, basis sizes).
Time the counting hooks take is recorded as ``bench.hook`` spans so it
is not charged to any library module.
"""

import functools
import importlib
import inspect
import pkgutil
import sys
import types
from collections import Counter
from fractions import Fraction
from time import perf_counter

MODULES = ("ring", "groebner", "hilbert", "blowup", "ratmap", "conditions", "families", "cli")
POLY_METHODS = {
    "__add__": "poly_add",
    "__sub__": "poly_sub",
    "__neg__": "poly_neg",
    "__mul__": "poly_mul",
    "__rmul__": "poly_rmul",
    "scale": "poly_scale",
    "mul_term": "poly_mul_term",
    "monic": "poly_monic",
    "pow": "poly_pow",
    "evaluate": "poly_evaluate",
    "map_vars": "poly_map_vars",
    "substitute_tail": "poly_substitute_tail",
}
SKIP_PREFIXES = ("_", "monomial")
HOOK = "bench.hook"


def _bits(c):
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return abs(c).bit_length()


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = {}
        self.spans = []
        self.stack = [-1]
        self.op = 0
        self.counts = Counter()
        self.coeff_bits_max = 0
        self._originals = []

    def _id(self, name):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        nid = self._id(name)
        hook_id = self._id(HOOK)
        spans = self.spans
        stack = self.stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            state = None if before is None else before(args, kwargs)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (nid, start, perf_counter(), parent, tracer.op)
                stack.pop()
                tracer._on_error(exc)
                raise
            end = perf_counter()
            spans[idx] = (nid, start, end, parent, tracer.op)
            stack.pop()
            if after is not None:
                after(args, kwargs, result, state)
                spans.append((hook_id, end, perf_counter(), parent, tracer.op))
            return result

        return traced

    def _on_error(self, exc):
        from reesdeg.groebner import BudgetExceeded

        if isinstance(exc, BudgetExceeded) and not getattr(exc, "_bench_counted", False):
            exc._bench_counted = True
            self.counts["groebner.budget_exceeded"] += 1

    def install(self):
        """Wrap every target and rebind it in all reesdeg namespaces."""
        import reesdeg

        for info in pkgutil.iter_modules(reesdeg.__path__):
            importlib.import_module("reesdeg." + info.name)
        hooks = self._hooks()
        replace = {}
        for short in MODULES:
            mod = sys.modules["reesdeg." + short]
            for attr, fn in list(vars(mod).items()):
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith(SKIP_PREFIXES)
                ):
                    before, after = hooks.get((short, attr), (None, None))
                    replace[fn] = self._wrap("%s.%s" % (short, attr), fn, before, after)
        for name, mod in list(sys.modules.items()):
            if name != "reesdeg" and not name.startswith("reesdeg."):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in replace:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, replace[value])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if isinstance(v, types.FunctionType) and v in replace:
                            self._originals.append((value, k, v))
                            value[k] = replace[v]
        from reesdeg.ring import Poly

        for meth, short in POLY_METHODS.items():
            fn = vars(Poly)[meth]
            self._originals.append((Poly, meth, fn))
            setattr(Poly, meth, self._wrap("ring." + short, fn))

    def uninstall(self):
        for owner, attr, value in reversed(self._originals):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._originals = []

    # -- counting hooks ------------------------------------------------------

    def _hooks(self):
        from reesdeg.ratmap import NOT_GENERICALLY_FINITE, degree_map

        counts = self.counts
        dm_sig = inspect.signature(degree_map)

        def gb_before(args, kwargs):
            ideal = args[0] if args else kwargs["I"]
            return ideal, len(ideal.gb_cache)

        def gb_after(args, kwargs, result, state):
            ideal, size = state
            if len(ideal.gb_cache) == size:
                counts["groebner.groebner_basis.cache_hits"] += 1
                return
            counts["groebner.basis_gens"] += len(result)
            bits = self.coeff_bits_max
            for g in result:
                counts["groebner.basis_terms"] += len(g.terms)
                for c in g.terms.values():
                    b = _bits(c)
                    if b > bits:
                        bits = b
            self.coeff_bits_max = bits

        def degree_map_after(args, kwargs, result, state):
            bound = dm_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            asked = bound.arguments["trials"]
            log = result[1]
            # a disagreeing first run is redone at a larger count and only
            # the second log is returned
            run = len(log) if len(log) == asked else asked + len(log)
            counts["ratmap.fiber_trials_run"] += run
            counts["ratmap.fiber_trials_used"] += len(log)
            counts["ratmap.not_finite_trials"] += sum(
                1 for _, v in log if v == NOT_GENERICALLY_FINITE
            )

        def saturate_after(args, kwargs, result, state):
            counts["groebner.saturate.rounds"] += result.sat_exponent + 1

        def rees_after(args, kwargs, result, state):
            counts["blowup.rees_gens"] += len(result.gens)

        return {
            ("groebner", "groebner_basis"): (gb_before, gb_after),
            ("ratmap", "degree_map"): (None, degree_map_after),
            ("groebner", "saturate"): (None, saturate_after),
            ("blowup", "rees_ideal"): (None, rees_after),
        }

    # -- results -------------------------------------------------------------

    def summary(self):
        """Per-name call counts and self times (seconds)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for nid, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = Counter()
        for i, (nid, start, end, _, _) in enumerate(spans):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += end - start - child[i]
        return calls, self_s

    def write_spans(self, path):
        """One tab-separated line per span: op, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            names = self.names
            for nid, start, end, parent, op in self.spans:
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\n" % (op, names[nid], start, end, parent))


CALL_COUNTS = (
    "groebner.eliminate",
    "groebner.intersect",
    "groebner.colon",
    "groebner.saturate",
    "groebner.interreduce",
    "groebner.normal_form",
    "hilbert.dim_degree",
    "hilbert.hilbert_function",
    "blowup.rees_ideal",
    "blowup.specialize_rees",
    "conditions.det_cofactor",
    "conditions.det_bareiss",
    "conditions.height",
    "ring.poly_mul",
    "ring.poly_exact_div",
)


def _module_self(self_s, module):
    return sum(v for k, v in self_s.items() if k.split(".", 1)[0] == module)


def layer_metrics(tracer):
    """Per-module metrics of one traced pass, as name -> value."""
    calls, self_s = tracer.summary()
    c = tracer.counts
    gb_calls = calls["groebner.groebner_basis"]
    trials_run = c["ratmap.fiber_trials_run"]
    gb_self = self_s["groebner.groebner_basis"]
    out = {
        "cli.self_s": _module_self(self_s, "cli"),
        "cli.ops": calls["cli.main"],
        "ratmap.self_s": _module_self(self_s, "ratmap"),
        "ratmap.fiber_trials_run": trials_run,
        "ratmap.fiber_trials_used": c["ratmap.fiber_trials_used"],
        "ratmap.trial_yield": c["ratmap.fiber_trials_used"] / trials_run if trials_run else 0.0,
        "ratmap.not_finite_trials": c["ratmap.not_finite_trials"],
        "groebner.groebner_basis.self_s": gb_self,
        "groebner.groebner_basis.calls": gb_calls,
        "groebner.groebner_basis.cache_hits": c["groebner.groebner_basis.cache_hits"],
        "groebner.gb_cache_hit_ratio": (
            c["groebner.groebner_basis.cache_hits"] / gb_calls if gb_calls else 0.0
        ),
        "groebner.basis_gens": c["groebner.basis_gens"],
        "groebner.basis_terms": c["groebner.basis_terms"],
        "groebner.budget_exceeded": c["groebner.budget_exceeded"],
        "groebner.ideal_ops.self_s": _module_self(self_s, "groebner") - gb_self,
        "groebner.saturate.rounds": c["groebner.saturate.rounds"],
        "groebner.coeff_bits_max": tracer.coeff_bits_max,
        "hilbert.self_s": _module_self(self_s, "hilbert"),
        "blowup.self_s": _module_self(self_s, "blowup"),
        "blowup.rees_gens": c["blowup.rees_gens"],
        "conditions.self_s": _module_self(self_s, "conditions"),
        "ring.self_s": _module_self(self_s, "ring"),
        "families.self_s": _module_self(self_s, "families"),
    }
    for name in CALL_COUNTS:
        out[name + ".calls"] = calls[name]
    return out

