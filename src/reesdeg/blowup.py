"""Blowup algebras of a form ideal: Rees ideal, fiber cone, specialization.

For forms g0..gs of common degree d in R = k[x], the Rees algebra is the
image of S = R[y0..ys] under yi -> gi*t; its defining ideal is obtained
exactly by eliminating t from (y0 - t*g0, ..., ys - t*gs).  The ambient
ring carries the bigrading x -> (1,0), y -> (0,1), t -> (-d,1), so every
intermediate ideal stays bihomogeneous.  t is adjoined by the engine's
one auxiliary-variable helper, `groebner._with_aux_var`, and eliminated
by `groebner._drop_aux_var`, as in intersections and saturations.  The
fiber cone ideal is the y-only part, the associated graded ideal adds
the forms back in.  Every entry point checks its forms through
`_form_degree`: nonzero, of one ring, of one positive degree.

Families with deformation parameters run the same elimination once over
the parameter ring (parameters in a trailing block); specializing is
substitution into the generic basis, and the comparison against the
Rees ideal of the specialized forms decides whether specialization
commutes with blowing up at that point.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

from .groebner import (
    IdealHandle,
    _budget,
    _charge,
    _drop_aux_var,
    _with_aux_var,
    eliminate,
    groebner_basis,
    ideal_equal,
    normal_form,
    saturate,
    seed_hilbert_series,
)
from .hilbert import dim_degree, hilbert_function, lead_ideal, monomial_dim_degree
from .ring import Poly, RingCtx, RingError, fresh_names


def _form_degree(forms):
    """The common degree d > 0 of nonzero forms of one ring, each of
    bidegree (d, 0): parameters do not count.  No message formats a
    form, so forms of a plain ring are checked without unpacking."""
    if not forms:
        raise RingError("no forms given")
    ctx = forms[0].ctx
    d = None
    for i, g in enumerate(forms):
        if g.ctx != ctx:
            raise RingError("forms from different rings")
        if not g:
            raise RingError("zero form in the generating set")
        bd = g.bidegree()
        if bd is None or bd[1] != 0:
            raise RingError("form %d is not homogeneous in the coordinates" % i)
        if d is None:
            d = bd[0]
        elif bd[0] != d:
            raise RingError("forms have mixed degrees %d and %d" % (d, bd[0]))
    if d <= 0:
        raise RingError("forms must have positive degree")
    return d


def _split_ctx(ctx):
    np = ctx.n_params
    nx = ctx.nvars - np
    return nx, np


def blowup_ambient(ctx, s, y_names=None):
    """Ring k[x, y0..ys (, params)] with the blowup bigrading."""
    nx, np = _split_ctx(ctx)
    if y_names is None:
        y_names = fresh_names("y", s + 1, set(ctx.var_names))
    names = ctx.var_names[:nx] + tuple(y_names) + ctx.var_names[nx:]
    weights = ctx.weights[:nx] + ((0, 1),) * (s + 1) + ctx.weights[nx:]
    order = "grevlex" if np == 0 else ("blocks", (nx + s + 1, np))
    return RingCtx(names, ctx.field, order, weights=weights, n_params=np)


def graph_ideal(forms, y_names=None):
    """(y_0 - t*g_0, ..., y_s - t*g_s) in k[t, x, y (, params)], with its
    Hilbert series stated when the forms carry no parameters.

    Weights t, x -> 1 and y -> d+1 make the graph ideal homogeneous.  In
    a y-heavy order its generators have the coprime leads y_i, so S/graph
    has the Hilbert series of S/(y_0, ..., y_s), known before any S-pair.
    Parameters would need weight 0, which is no positive grading.
    """
    forms = list(forms)
    d = _form_degree(forms)
    ctx = forms[0].ctx
    nx, np = _split_ctx(ctx)
    s = len(forms) - 1
    tctx, tv, _ = _with_aux_var(blowup_ambient(ctx, s, y_names=y_names), weight=(-d, 1))
    # one map_vars per form: x and the parameters go straight into tctx
    into_t = list(range(1, nx + 1)) + list(range(nx + s + 2, tctx.nvars))
    gens = []
    for i, g in enumerate(forms):
        yi = Poly.var(tctx, nx + 1 + i)
        gens.append(yi - tv * g.map_vars(tctx, into_t))
    graph = IdealHandle(tctx, gens)
    if not np:
        weights = (1,) * (nx + 1) + (d + 1,) * (s + 1)
        # (1 - z^(d+1))^(s+1), the numerator of S/(y_0, ..., y_s)
        numer = {j * (d + 1): (-1) ** j * comb(s + 1, j) for j in range(s + 2)}
        seed_hilbert_series(graph, weights, numer)
    return graph


def rees_ideal(forms, y_names=None):
    """Defining ideal of the Rees algebra in k[x, y (, params)]: the graph
    ideal with t eliminated.

    A principal ideal has polynomial Rees algebra, so the result is the
    zero ideal when one form is given.
    """
    forms = list(forms)
    graph = graph_ideal(forms, y_names=y_names)
    return _drop_aux_var(graph, blowup_ambient(forms[0].ctx, len(forms) - 1, y_names=y_names))


def fiber_cone_ideal(forms, rees=None):
    """Defining ideal of the fiber cone in k[y (, params)]: the part of
    the Rees ideal not involving the x-coordinates."""
    if rees is None:
        rees = rees_ideal(forms)
    nx, _ = _split_ctx(forms[0].ctx)
    return eliminate(rees, nx)


def _fiber_cone_summary(forms, rees=None):
    """HilbertSummary of the fiber cone of parameter-free forms, read off
    the leads of the Rees basis in the ring order that are free of x: an
    initial ideal keeps the bigraded Hilbert function, whose values in
    bidegrees (0, n) are those of the fiber cone."""
    ctx = forms[0].ctx
    if ctx.n_params:
        raise RingError("analytic spread needs specialized (parameter-free) forms")
    if rees is None:
        rees = rees_ideal(forms)
    nx = ctx.nvars
    y_leads = [m[nx:] for m in lead_ideal(rees) if not any(m[:nx])]
    return monomial_dim_degree(y_leads, len(forms))


def analytic_spread(forms, rees=None):
    """Krull dimension of the fiber cone."""
    return _fiber_cone_summary(list(forms), rees).dim


def embed_in_blowup(forms, xy):
    """Map forms from k[x (,params)] into the blowup ambient ring."""
    ctx = forms[0].ctx
    nx, np = _split_ctx(ctx)
    ny = xy.nvars - ctx.nvars
    imap = list(range(nx)) + [nx + ny + j for j in range(np)]
    return [g.map_vars(xy, imap) for g in forms]


def _gr_ideal(rees, forms):
    """Defining ideal of the associated graded ring: rees + (forms)."""
    return IdealHandle(rees.ctx, list(rees.gens) + embed_in_blowup(forms, rees.ctx))


@dataclass(frozen=True)
class BlowupPresentation:
    """Rees ideal, fiber cone ideal and associated graded ideal of a
    parameter-free form ideal, with the analytic spread."""

    ambient: RingCtx
    degree: int
    rees: IdealHandle
    fiber: IdealHandle
    gr: IdealHandle
    spread: int


def blowup_presentation(forms):
    forms = list(forms)
    d = _form_degree(forms)
    if forms[0].ctx.n_params:
        raise RingError("presentation needs specialized (parameter-free) forms")
    rees = rees_ideal(forms)
    fib = fiber_cone_ideal(forms, rees=rees)
    spread = dim_degree(fib).dim
    return BlowupPresentation(rees.ctx, d, rees, fib, _gr_ideal(rees, forms), spread)


def sfib_hilbert_function(forms, n):
    """Value of the saturated fiber cone Hilbert function at n: the
    dimension of the degree n*d piece of the saturation of I^n.  Each
    product forming I^n costs one step of the step budget."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    if n == 0:
        return 1
    forms = list(forms)
    d = _form_degree(forms)
    ctx = forms[0].ctx
    if ctx.n_params:
        raise RingError("saturated fiber needs specialized (parameter-free) forms")
    nx = ctx.nvars
    budget = _budget()
    power = {}
    for combo in combinations_with_replacement(range(len(forms)), n):
        g = forms[combo[0]]
        for i in combo[1:]:
            _charge(budget)
            g = g * forms[i]
        power[frozenset(g.terms.items())] = g
    maxi = IdealHandle(ctx, [Poly.var(ctx, i) for i in range(nx)])
    sat = saturate(IdealHandle(ctx, list(power.values())), maxi)
    ambient_dim = comb(n * d + nx - 1, nx - 1)
    return ambient_dim - hilbert_function(sat, n * d)


def _parameter_free(ctx, point, what):
    """`ctx` without its parameters, under grevlex, for substituting
    `point`, which must give each parameter a value, into `what`."""
    k, np = _split_ctx(ctx)
    if np == 0:
        raise RingError("%s carries no parameters" % what)
    if len(point) != np:
        raise RingError("expected %d parameter values" % np)
    return RingCtx(ctx.var_names[:k], ctx.field, "grevlex", weights=ctx.weights[:k])


def specialize_forms(forms, point):
    """Substitute parameter values, landing in the plain coordinate ring."""
    sub = _parameter_free(forms[0].ctx, point, "the form ideal")
    return [g.substitute_tail(sub, point) for g in forms]


def specialize_rees(generic, point):
    """Substitute parameter values into the generators of a generic Rees
    ideal, for `rees_ideal`'s result its cached minimal Groebner basis;
    returns an ideal in the parameter-free ambient ring.  Substitution is
    a ring map, so any generating set gives the same ideal, and its
    consumers build their own Groebner basis of it."""
    sub = _parameter_free(generic.ctx, point, "the generic Rees ideal")
    return IdealHandle(sub, [g.substitute_tail(sub, point) for g in generic.gens])


@dataclass(frozen=True)
class SpecializationResult:
    """Outcome of comparing spec(generic Rees) against the Rees ideal of
    the specialized forms: `kind` is isomorphism or proper_kernel, and a
    proper kernel names a witness generator missing downstairs."""

    kind: str
    witness: object


def _specialized(forms, point, generic, special=None):
    """(specialized forms, specialized generic Rees ideal) at `point`;
    the generic Rees ideal is computed when `generic` is None, and the
    forms are specialized when `special` is None.  A point that kills
    one of the forms is rejected."""
    if generic is None:
        generic = rees_ideal(forms)
    if special is None:
        special = specialize_forms(forms, point)
    for i, g in enumerate(special):
        if not g:
            raise RingError("parameter point kills generator %d" % i)
    return special, specialize_rees(generic, point)


def gr_dimension_at(forms, point, generic=None, special=None):
    """Dimension of the special fiber of the associated graded ring.

    `forms` live in a parameter ring; the generic Rees ideal may be
    passed in to amortize it across many points, and so may `special`,
    the forms already specialized at `point`.  Specializations that
    kill one of the forms are rejected.  A parameter-free family is
    accepted with the empty point and charted directly.
    """
    if forms[0].ctx.n_params:
        forms, rees = _specialized(forms, point, generic, special)
    elif tuple(point):
        raise RingError("parameter-free family takes an empty point")
    else:
        rees = generic if generic is not None else rees_ideal(forms)
    return dim_degree(_gr_ideal(rees, forms)).dim


def specialization_compare(forms, point, generic=None):
    """Does blowing up commute with this specialization?

    The specialized generic Rees ideal always sits inside the Rees ideal
    of the specialized forms; equality means the blowup of the special
    member is the fiber of the family.  Otherwise the defect is exhibited
    by a generator of the special Rees ideal that does not reduce to zero
    against the specialized generic one.
    """
    special, spec = _specialized(forms, point, generic)
    ny = spec.ctx.nvars - (forms[0].ctx.nvars - forms[0].ctx.n_params)
    direct = rees_ideal(special, y_names=spec.ctx.var_names[-ny:])
    if direct.ctx != spec.ctx:
        raise AssertionError("specialized ambient rings disagree")
    for g in spec.gens:
        if normal_form(g, direct):
            raise AssertionError("containment of the specialized ideal failed")
    if ideal_equal(spec, direct):
        return SpecializationResult("isomorphism", None)
    for g in groebner_basis(direct):
        if normal_form(g, spec):
            return SpecializationResult("proper_kernel", g)
    raise AssertionError("ideals differ but no witness was found")
