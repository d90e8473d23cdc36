"""Blowup algebras of a form ideal: Rees ideal, fiber cone, specialization.

For forms g0..gs of common degree d in R = k[x], the Rees algebra is the
image of S = R[y0..ys] under yi -> gi*t; its defining ideal is obtained
exactly by eliminating t from (y0 - t*g0, ..., ys - t*gs).  The ambient
ring carries the bigrading x -> (1,0), y -> (0,1), t -> (-d,1), so every
intermediate ideal stays bihomogeneous.  The fiber cone ideal is the
y-only part, the associated graded ideal adds the forms back in.

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
    _with_aux_var,
    eliminate,
    groebner_basis,
    ideal_equal,
    normal_form,
    saturate,
)
from .hilbert import dim_degree, hilbert_function
from .ring import Poly, RingCtx, RingError, fresh_names


def _form_degree(forms):
    """Common x-degree of the forms; parameters do not count."""
    if not forms:
        raise RingError("no forms given")
    d = None
    for g in forms:
        if not g:
            raise RingError("zero form in the generating set")
        bd = g.bidegree()
        if bd is None:
            raise RingError("form is not homogeneous: %s" % g)
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


def rees_ideal(forms, budget=None, y_names=None):
    """Defining ideal of the Rees algebra in k[x, y (, params)].

    A principal ideal has polynomial Rees algebra, so the result is the
    zero ideal when one form is given.
    """
    forms = list(forms)
    d = _form_degree(forms)
    ctx = forms[0].ctx
    nx, _ = _split_ctx(ctx)
    s = len(forms) - 1
    xy = blowup_ambient(ctx, s, y_names=y_names)
    tctx = _with_aux_var(xy, weight=(-d, 1))
    into_t = list(range(1, nx + 1)) + list(range(nx + s + 2, tctx.nvars))
    tv = Poly.var(tctx, 0)
    gens = []
    for i, g in enumerate(forms):
        yi = Poly.var(tctx, nx + 1 + i)
        gens.append(yi - tv * g.map_vars(tctx, into_t))
    out = eliminate(IdealHandle(tctx, gens), 1, budget=budget)
    if out.ctx != xy:
        raise AssertionError("elimination returned an unexpected ring")
    return out


def fiber_cone_ideal(forms, budget=None, rees=None):
    """Defining ideal of the fiber cone in k[y (, params)]: the part of
    the Rees ideal not involving the x-coordinates."""
    if rees is None:
        rees = rees_ideal(forms, budget=budget)
    ctx = forms[0].ctx
    nx, _ = _split_ctx(ctx)
    return eliminate(rees, nx, budget=budget)


def analytic_spread(forms, budget=None, rees=None):
    """Krull dimension of the fiber cone."""
    fib = fiber_cone_ideal(forms, budget=budget, rees=rees)
    if fib.ctx.n_params:
        raise RingError("analytic spread needs specialized (parameter-free) forms")
    return dim_degree(fib, budget=budget).dim


def embed_in_blowup(forms, xy):
    """Map forms from k[x (,params)] into the blowup ambient ring."""
    ctx = forms[0].ctx
    nx, np = _split_ctx(ctx)
    ny = xy.nvars - ctx.nvars
    imap = list(range(nx)) + [nx + ny + j for j in range(np)]
    return [g.map_vars(xy, imap) for g in forms]


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


def blowup_presentation(forms, budget=None):
    forms = list(forms)
    if forms and forms[0].ctx.n_params:
        raise RingError("presentation needs specialized (parameter-free) forms")
    d = _form_degree(forms)
    rees = rees_ideal(forms, budget=budget)
    fib = fiber_cone_ideal(forms, budget=budget, rees=rees)
    gr = IdealHandle(rees.ctx, list(rees.gens) + embed_in_blowup(forms, rees.ctx))
    spread = dim_degree(fib, budget=budget).dim
    return BlowupPresentation(rees.ctx, d, rees, fib, gr, spread)


def sfib_hilbert_function(forms, n, budget=None):
    """Value of the saturated fiber cone Hilbert function at n: the
    dimension of the degree n*d piece of the saturation of I^n."""
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
    power = {}
    for combo in combinations_with_replacement(range(len(forms)), n):
        g = forms[combo[0]]
        for i in combo[1:]:
            g = g * forms[i]
        power[frozenset(g.terms.items())] = g
    maxi = IdealHandle(ctx, [Poly.var(ctx, i) for i in range(nx)])
    sat = saturate(IdealHandle(ctx, list(power.values())), maxi, budget=budget)
    ambient_dim = comb(n * d + nx - 1, nx - 1)
    return ambient_dim - hilbert_function(sat, n * d, budget=budget)


def specialize_forms(forms, point):
    """Substitute parameter values, landing in the plain coordinate ring."""
    ctx = forms[0].ctx
    nx, np = _split_ctx(ctx)
    if np == 0:
        raise RingError("forms carry no parameters")
    if len(point) != np:
        raise RingError("expected %d parameter values" % np)
    sub = RingCtx(ctx.var_names[:nx], ctx.field, "grevlex", weights=ctx.weights[:nx])
    return [g.substitute_tail(sub, point) for g in forms]


def specialize_rees(generic, point, budget=None):
    """Substitute parameter values into a generic Rees basis; returns an
    ideal in the parameter-free ambient ring.  Its consumers reduce it
    through the Groebner basis they build, so it is left unreduced."""
    ctx = generic.ctx
    nxy, np = ctx.nvars - ctx.n_params, ctx.n_params
    if np == 0:
        raise RingError("generic Rees ideal carries no parameters")
    sub = RingCtx(
        ctx.var_names[:nxy], ctx.field, "grevlex", weights=ctx.weights[:nxy]
    )
    basis = groebner_basis(generic, budget=budget)
    return IdealHandle(sub, [g.substitute_tail(sub, point) for g in basis])


@dataclass(frozen=True)
class SpecializationResult:
    """Outcome of comparing spec(generic Rees) against the Rees ideal of
    the specialized forms: `kind` is isomorphism or proper_kernel, and a
    proper kernel names a witness generator missing downstairs."""

    kind: str
    witness: object


def gr_dimension_at(forms, point, generic=None, budget=None):
    """Dimension of the special fiber of the associated graded ring.

    `forms` live in a parameter ring; the generic Rees ideal may be
    passed in to amortize it across many points.  Specializations that
    kill one of the forms are rejected.  A parameter-free family is
    accepted with the empty point and charted directly.
    """
    if not forms[0].ctx.n_params:
        if tuple(point):
            raise RingError("parameter-free family takes an empty point")
        rees = generic if generic is not None else rees_ideal(forms, budget=budget)
        full = IdealHandle(
            rees.ctx, list(rees.gens) + embed_in_blowup(forms, rees.ctx)
        )
        return dim_degree(full, budget=budget).dim
    if generic is None:
        generic = rees_ideal(forms, budget=budget)
    special = specialize_forms(forms, point)
    for i, g in enumerate(special):
        if not g:
            raise RingError("parameter point kills generator %d" % i)
    spec = specialize_rees(generic, point, budget=budget)
    full = IdealHandle(
        spec.ctx, list(spec.gens) + embed_in_blowup(special, spec.ctx)
    )
    return dim_degree(full, budget=budget).dim


def specialization_compare(forms, point, generic=None, budget=None):
    """Does blowing up commute with this specialization?

    The specialized generic Rees ideal always sits inside the Rees ideal
    of the specialized forms; equality means the blowup of the special
    member is the fiber of the family.  Otherwise the defect is exhibited
    by a generator of the special Rees ideal that does not reduce to zero
    against the specialized generic one.
    """
    if generic is None:
        generic = rees_ideal(forms, budget=budget)
    special = specialize_forms(forms, point)
    for i, g in enumerate(special):
        if not g:
            raise RingError("parameter point kills generator %d" % i)
    spec = specialize_rees(generic, point, budget=budget)
    ny = spec.ctx.nvars - (forms[0].ctx.nvars - forms[0].ctx.n_params)
    direct = rees_ideal(special, budget=budget, y_names=spec.ctx.var_names[-ny:])
    if direct.ctx != spec.ctx:
        raise AssertionError("specialized ambient rings disagree")
    for g in spec.gens:
        if normal_form(g, direct, budget=budget):
            raise AssertionError("containment of the specialized ideal failed")
    if ideal_equal(spec, direct, budget=budget):
        return SpecializationResult("isomorphism", None)
    for g in groebner_basis(direct, budget=budget):
        if normal_form(g, spec, budget=budget):
            return SpecializationResult("proper_kernel", g)
    raise AssertionError("ideals differ but no witness was found")
