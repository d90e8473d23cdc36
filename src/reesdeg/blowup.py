"""Blowup algebras of a form ideal: Rees ideal, fiber cone, specialization.

For forms g0..gs of common degree d in R = k[x], the Rees algebra is the
image of S = R[y0..ys] under yi -> gi*t; its defining ideal is obtained
exactly by eliminating t from (y0 - t*g0, ..., ys - t*gs).  The
bigrading of the ambient ring is its x | y split: x -> (1,0), y -> (0,1),
parameters (0,0), read by `Poly.bidegree(nx)`, and no ring stores it.
With t -> (-d,1) every intermediate ideal stays bihomogeneous.  t is
adjoined by the engine's one auxiliary-variable helper,
`groebner._with_aux_var`, and eliminated by `eliminate(graph, 1)`, as in
intersections and saturations, which lands in the ambient ring itself.
The associated graded ideal adds the forms back in.  As dim gr_I(S) = dim S
for every proper ideal I (Matsumura, Commutative Ring Theory, Th. 15.7),
only a family's uncertified points still build a gr basis.  These are the
constructions: each takes every input it reads, and `ratmap.RationalMapSpec`,
the map context, decides which of them runs and holds what they return.
Every entry point checks its forms through `_form_degree`: nonzero, of one
ring, of one positive degree.

The fiber cone ideal R cap k[y (, params)] is read off the Rees basis.
Every seed, S-polynomial and row operation of the engine keeps that basis
bihomogeneous, parameters of bidegree (0, 0), so an element with an
x-free lead has no term in x, and the lead of any f in R cap k[y] is
divisible by such a lead.  The elements with x-free leads are thus a
minimal Groebner basis of it, in the order the ring's induces there:
grevlex on y, then a block of the parameters.

Parameter-free forms whose Jacobian matrix has full row rank s+1 over
k(x) are algebraically independent, so their fiber cone ideal, the
kernel of k[y] -> k[g], is zero and no Rees basis is needed to say so
(`jacobian_independent`).  Take a relation F(g) = 0 of least degree.
By the chain rule the vector of the (dF/dy_i)(g) lies in the left
kernel of J, which is zero, so each dF/dy_i vanishes at g and, being
of smaller degree, is 0 as a polynomial.  In characteristic 0, F is
then constant; in characteristic p, F = G^p with G(g) = 0, a relation
of smaller degree.  Either way there is no such F.  Jacobi proved the
criterion in characteristic 0; this direction holds over any perfect
field, F_p included, though there the converse fails (Pandey, Saxena
and Sinhababu, "Algebraic independence over positive characteristic",
Computational Complexity 2018).  The rank is taken at fixed integer
points: a nonzero maximal minor at one point is a nonzero polynomial,
so full rank there proves full rank over k(x).  The test is one-sided:
forms it does not certify take the Rees route, and no answer depends
on the points.

For r+1 forms of P^r, `jacobian_dual_birational` certifies the map
birational (see `ratmap`) when the weak Jacobian dual psi, read off the
linear syzygies of the forms, has rank r at the image point g(p) of one
fixed point p.  Forms with fewer than r linear syzygies are dropped
after the one elimination that finds them, `linear_syzygies`, which the
map context computes once for this rule and the next.  Both Jacobian
rules take ranks and that kernel with the engine's echelon form,
`groebner._gauss_jordan`: mod p over F_p and fraction-free on integers
over Q, so ranks over Q are exact and no Groebner basis is built.  Both
read the same fixed points, whose coordinates are the first primes;
over a small F_p that has one of them 0 mod p, points drawn without p
follow.

For r+1 forms of P^r of degree d, `hilbert_burch_presentation` recovers
a presentation matrix phi of their ideal by linear algebra alone: the
syzygies of degree e = 1, 2, ..., each degree's kernel one more
`_gauss_jordan` pass over the products u*g_i, that are independent
modulo the multiples of the columns found so far become columns, until
there are r, the last looked for in degree d minus the others.
`presents_linear_type` then certifies phi: its signed maximal minors
are c*g with one c != 0, and it satisfies G_{r+1}
(`conditions.check_Gm`).  The column degrees mu_j, read back by
`conditions.column_degrees`, give deg F = prod mu_j (see `ratmap`,
which states the theorems and the maps it declines).  The test is
one-sided: forms it does not certify take the Rees route.

The saturated fiber cone of a certified map needs no power of I.  A map
the context certifies birational has F~(I) = k[y] (see `ratmap`).  A
map whose matrix phi is certified has its Hilbert function from phi
(`hilbert_burch_sfib`), in three steps:
- Linear type: I is of linear type (Herzog-Simis-Vasconcelos, see
  `ratmap`), so the Rees ideal is generated by the r forms L_j =
  sum_i phi_ij y_i, of bidegree (mu_j, 1).
- Complete intersection: the graph Gamma in P^r x P^r has codimension
  r, so the L_j are a complete intersection, and O_Gamma is resolved by
  their Koszul complex, K_k = sum over |J| = k of O(-mu_J, -k) with
  mu_J = sum_(j in J) mu_j.  The value at n is dim H^0(Gamma,
  O_Gamma(0, n)) = dim [(I^n)^sat]_{nd} (Buse-Cid-Ruiz-D'Andrea,
  "Degree and birationality of multi-graded rational maps", Proc. LMS
  2020).
- Koszul and Kunneth: for k >= 1, mu_J >= 1 and n - k >= -r, so by
  Kunneth K_k(0, n) has cohomology in degree r alone, H^r(P^r,
  O(-mu_J)) (x) k[y]_(n-k), and K_0(0, n) has H^0 = k[y]_n alone.  In
  the hypercohomology spectral sequence of K_.(0, n) only H^0(K_0) and
  H^r(K_r) have total degree 0, and only d_1 : H^r(K_r) -> H^r(K_(r-1))
  touches them.  With sum mu_j = d, H^0(O_Gamma(0, n)) is k[y]_n plus
  the kernel of
      delta_n : H^r(O(-d)) (x) k[y]_(n-r)
                -> sum_j H^r(O(mu_j - d)) (x) k[y]_(n-r+1),
  the product with L_j on component j.
H^r(P^r, O(-a)) has the basis of inverse monomials x^-alpha, every
alpha_i >= 1 and |alpha| = a, and x^gamma sends x^-alpha to
x^(gamma-alpha), or to 0 once an exponent reaches 0.  So the value is
C(n+r, r) + C(d-1, r)*C(n, r) - rank delta_n.  delta_n = 0 when every
d - mu_j <= r: a (1, 2) map reads C(n+2, 2) + C(n, 2), and r = 1 gives
d*n + 1.  `saturated_fiber_dim` is the route of every map neither rule
certifies, and of the maps of P^1 (see `ratmap.sfib_hilbert_function`):
it forms I^n and saturates it by the irrelevant ideal.

Families with deformation parameters run the same elimination once over
the parameter ring (parameters in a trailing block); specializing is
substitution into the generic basis, and the comparison against the
Rees ideal of the specialized forms decides whether specialization
commutes with blowing up at that point.  Where no leading coefficient
in the parameters of the generic graph basis vanishes, it does, and the
substituted generic Rees basis is a Groebner basis of the special Rees
ideal (`certified_rees`, after Kalkbrener), so no basis is built there.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, lcm, prod

from .conditions import PresentationMatrix, check_Gm, column_degrees, minors
from .groebner import (
    IdealHandle,
    _basis,
    _basis_ideal,
    _budget,
    _charge,
    _gauss_jordan,
    _integral,
    _normalize,
    _with_aux_var,
    eliminate,
    groebner_basis,
    normal_form,
    saturate,
    seed_hilbert_series,
)
from .hilbert import dim_degree, hilbert_function
from .ring import (
    Poly,
    RingCtx,
    RingError,
    _is_prime,
    _minimal_packed,
    fresh_names,
    monomials_of_degree,
)


def _form_degree(forms):
    """The common degree d > 0 of nonzero forms of one ring, homogeneous
    in the coordinates: parameters do not count.  No message formats a
    form, so forms of a ring without parameters are checked without
    unpacking."""
    if not forms:
        raise RingError("no forms given")
    ctx = forms[0].ctx
    d = None
    for i, g in enumerate(forms):
        if g.ctx != ctx:
            raise RingError("forms from different rings")
        if not g:
            raise RingError("zero form in the generating set")
        bd = g.bidegree(ctx.nvars - ctx.n_params)
        if bd is None:
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
    """Ring k[x, y0..ys (, params)], bigraded by its x | y split."""
    nx, np = _split_ctx(ctx)
    if y_names is None:
        y_names = fresh_names("y", s + 1, set(ctx.var_names))
    names = ctx.var_names[:nx] + tuple(y_names) + ctx.var_names[nx:]
    order = "grevlex" if np == 0 else ("blocks", (nx + s + 1, np))
    return RingCtx(names, ctx.field, order, n_params=np)


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
    tctx, tv, _ = _with_aux_var(blowup_ambient(ctx, s, y_names=y_names))
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
    return eliminate(graph_ideal(forms, y_names=y_names), 1)


def _x_free_rows(rees, nx):
    """The rows of the minimal Rees basis whose leads are free of the
    first nx variables, x: a minimal basis of the fiber cone ideal."""
    unpack = rees.ctx.packing.unpack
    return [t for t in _basis(rees) if not any(unpack(max(t))[:nx])]


def _x_free_leads(rees, nx):
    """The y-exponents of the leads of `_x_free_rows`: the leads of the
    fiber cone ideal of a parameter-free Rees ideal."""
    unpack = rees.ctx.packing.unpack
    return [unpack(max(t))[nx:] for t in _x_free_rows(rees, nx)]


def fiber_cone_ideal(forms, rees):
    """Defining ideal of the fiber cone in k[y (, params)], under the
    order the Rees ring's induces, with the x-free rows of the basis of
    `rees`, the Rees ideal of `forms`, as basis."""
    _form_degree(forms)
    nx, np = _split_ctx(forms[0].ctx)
    ctx = rees.ctx
    order = "grevlex" if not np else ("blocks", (ctx.nvars - nx - np, np))
    sub = RingCtx(ctx.var_names[nx:], ctx.field, order, n_params=np)
    unpack = ctx.packing.unpack
    rows = _x_free_rows(rees, nx)
    return _basis_ideal(sub, [{sub.key(unpack(m)[nx:]): c for m, c in t.items()} for t in rows])


def _free_fiber_cone(forms):
    """The fiber cone ideal of forms that `jacobian_independent`
    certifies: the zero ideal of the y-ring `blowup_ambient` names, under
    grevlex, from no basis."""
    ctx = forms[0].ctx
    names = blowup_ambient(ctx, len(forms) - 1).var_names[ctx.nvars :]
    return _basis_ideal(RingCtx(names, ctx.field, "grevlex"), [])


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


def saturated_fiber_dim(forms, n):
    """dim [(I^n)^sat]_{nd} for n >= 1: the value at n of the saturated
    fiber cone Hilbert function, by forming I^n, each product costing one
    step of the step budget, and saturating it by the irrelevant ideal."""
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
    return RingCtx(ctx.var_names[:k], ctx.field, "grevlex")


def specialize_forms(forms, point):
    """Substitute parameter values, landing in the plain coordinate ring.
    A point that kills one of the forms is rejected, naming it."""
    sub = _parameter_free(forms[0].ctx, point, "the form ideal")
    special = [g.substitute_tail(sub, point) for g in forms]
    for i, g in enumerate(special):
        if not g:
            raise RingError("parameter point kills generator %d" % i)
    return special


def specialize_rees(generic, point):
    """Substitute parameter values into the generators of a generic Rees
    ideal, for `rees_ideal`'s result its cached minimal Groebner basis;
    returns an ideal in the parameter-free ambient ring.  Substitution is
    a ring map, so any generating set gives the same ideal; the
    substituted basis is a Groebner basis of it only at a point that
    `certified_rees` accepts, and elsewhere its consumers build their own."""
    sub = _parameter_free(generic.ctx, point, "the generic Rees ideal")
    return IdealHandle(sub, [g.substitute_tail(sub, point) for g in generic.gens])


def leading_coefficients(graph):
    """The leading coefficients in k[params] of the rows of the cached
    minimal basis of a graph ideal in a parameter ring, each normalized
    and listed once, constants left out: for each row, the terms whose
    exponents in t, x and y are those of its lead, as a polynomial in
    the parameters."""
    ctx = graph.ctx
    k = ctx.nvars - ctx.n_params
    params = RingCtx(ctx.var_names[k:], ctx.field)
    p = ctx.field.characteristic
    unpack = ctx.packing.unpack
    coeffs = {}
    for t in _basis(graph):
        head = unpack(max(t))[:k]
        lc = {}
        for m, c in t.items():
            e = unpack(m)
            if e[:k] == head:
                lc[params.key(e[k:])] = c
        if max(lc):
            lc = _normalize(lc, p)
            coeffs.setdefault(frozenset(lc.items()), Poly(params, lc, _clean=True))
    return tuple(coeffs.values())


def certifies(coeffs, point):
    """True when none of `coeffs`, the `leading_coefficients` of a
    generic graph basis, vanishes at `point`."""
    return all(c.evaluate(point) for c in coeffs)


def certified_rees(generic, coeffs, point):
    """The Rees ideal of the forms specialized at `point`, with a minimal
    Groebner basis read off `generic`, their generic Rees ideal; None
    when one of `coeffs`, the `leading_coefficients` of the generic graph
    basis, vanishes at `point`.

    Where none vanishes, the generic graph basis, in the block order
    t | x y | params, specializes to a Groebner basis of the special
    graph ideal with the same leads in t, x and y (Kalkbrener, "On the
    stability of Groebner bases under specializations", JSC 1997).  Its
    t-free rows, the generic Rees basis, thus specialize to a Groebner
    basis of the special member's own Rees ideal.  Leads that differ
    only in the parameters may coincide or divide each other there, so
    the specialized rows are minimalized.
    """
    if not certifies(coeffs, point):
        return None
    spec = specialize_rees(generic, point)
    p = spec.ctx.field.characteristic
    rows = sorted((_normalize(_integral(g.terms, p)[0], p) for g in spec.gens), key=max)
    keep = _minimal_packed([max(t) for t in rows], spec.ctx.packing.guard)
    return _basis_ideal(spec.ctx, [rows[i] for i in keep])


# how many fixed points one draw of primes makes
_JACOBIAN_POINTS = 3


def _prime_draw(n, skip):
    """_JACOBIAN_POINTS points of n coordinates: point k holds the primes
    other than `skip` numbered k*n+1 to (k+1)*n."""
    primes = []
    q = 1
    while len(primes) < _JACOBIAN_POINTS * n:
        q += 1
        if q != skip and _is_prime(q):
            primes.append(q)
    return tuple(tuple(primes[k * n : (k + 1) * n]) for k in range(_JACOBIAN_POINTS))


@lru_cache(maxsize=None)
def _jacobian_points(n, p):
    """The fixed points of n integer coordinates at which both Jacobian
    rules rank over a field of characteristic p: the draw of the first
    3n primes, then, when p is one of them, the draw with p left out,
    whose coordinates are nonzero mod p.  Over F_p a point equal mod p
    to an earlier one is dropped.  Over Q, and over F_p for p above the
    primes drawn, the points are those of the first draw alone.  More
    points only add certificates: neither draw alone certifies all that
    the two do (over F_7 a Pfaffian needs the second; over F_2 the second
    is all (1, ..., 1) and maps with a common factor need the first)."""
    draws = _prime_draw(n, 0)
    if any(p in point for point in draws):
        draws += _prime_draw(n, p)
    points = {}
    for point in draws:
        points.setdefault(tuple(c % p for c in point) if p else point, point)
    return tuple(points.values())


def _field_row(row, p):
    """The integer row {column: entry} as a row over the field of
    characteristic p: entries mod p over F_p, zero entries dropped."""
    return {j: w for j, v in row.items() if (w := v % p if p else v)}


def _support(ctx, g):
    """Per term of the packed integer term dict g: (coefficient,
    [(variable, exponent)] over the nonzero exponents)."""
    unpack = ctx.packing.unpack
    return [(c, [(i, e) for i, e in enumerate(unpack(m)) if e]) for m, c in g.items()]


def _evaluated(supports, point, p, budget):
    """(values, gradient rows) at an integer point of the forms whose
    `_support`s are given, over the field of characteristic p, each form
    term evaluated costing one budget step.  Integer arithmetic is exact,
    so a coordinate 0, or 0 mod p, needs no care: a term t of exponent e
    in x has derivative e*t/x, and at x = 0 only e = 1 leaves one."""
    values, rows = [], []
    for form in supports:
        value, grad = 0, {}
        for c, support in form:
            _charge(budget)
            t = c * prod(point[i] ** e for i, e in support)
            value += t
            for i, e in support:
                x = point[i]
                if x:
                    grad[i] = grad.get(i, 0) + e * t // x
                elif e == 1:
                    grad[i] = grad.get(i, 0) + c * prod(point[h] ** f for h, f in support if h != i)
        values.append(value % p if p else value)
        rows.append(_field_row(grad, p))
    return values, rows


def jacobian_independent(forms):
    """True when the Jacobian matrix of `forms` has full row rank at one
    of the fixed `_jacobian_points`, which proves the forms algebraically
    independent (see the module docstring); False when no point does,
    and before any point when the ring has parameters or the forms are
    more than the variables they contain, so that the Jacobian has fewer
    nonzero columns than rows.

    The forms are checked by `_form_degree` first, and over Q scaled to
    integers.  The rank is the pivot count of `_gauss_jordan` on the
    gradients, stopped once every row has a pivot.  Each form term
    evaluated and each row operation costs one budget step.
    """
    _form_degree(forms)
    ctx = forms[0].ctx
    n = ctx.nvars
    if ctx.n_params or len(forms) > n:
        return False
    p = ctx.field.characteristic
    supports = [_support(ctx, _integral(g.terms, p)[0]) for g in forms]
    if len({i for form in supports for _, support in form for i, _ in support}) < len(forms):
        return False
    budget = _budget()
    for point in _jacobian_points(n, p):
        _, rows = _evaluated(supports, point, p, budget)
        if len(_gauss_jordan(rows, p, budget, stop=len(rows))) == len(rows):
            return True
    return False


# the widest syzygy kernel the Hilbert-Burch rule builds: (r+1)*C(e+r, r)
# columns in degree e.  On a 2-vCPU VM the rule took about 60 ms on a
# 3 x 2 matrix of sextics (84 columns), and 1.6 s on x0^5000, x1^5000,
# whose one column of degree 5000 is a kernel of 10 002 columns, where
# the Rees route takes 0.01 s; a wider kernel is left to the Rees route
_KERNEL_COLUMNS = 120


@lru_cache(maxsize=None)
def _monomials(ctx, e):
    """The packed monomials of degree e of ctx, in the order of
    `monomials_of_degree`: for e = 1 the variables, x_k at k."""
    return tuple(ctx.key(u) for u in monomials_of_degree(ctx.nvars, e))


def _syzygy_kernel(forms, units, p, budget, pinned=frozenset()):
    """A basis of the syzygies of degree e of the r+1 packed integer term
    dicts `forms`, over the field of characteristic p, whose entries at
    the columns `pinned` are 0; `units` are the packed monomials u_k of
    degree e (`_monomials`).  Syzygy entry j = k*(r+1) + i is a_ki, the
    coefficient of u_k in that of g_i.  One `_gauss_jordan` pass reduces
    the rows that give each monomial of degree d+e its coefficients in
    the products u_k*g_i, pinned columns left out, sorted by their
    largest column, so that no row is scanned for a pivot to clear.  Each
    other column f without a pivot spans the kernel with a_f = L and
    a_j = -row[f]*L/row[j] for the row with its pivot at j, L the lcm of
    the pivots over Q and 1 over F_p; entries over F_p are reduced mod p.
    Each product term formed costs one budget step."""
    r1 = len(forms)
    columns = [j for j in range(len(units) * r1) if j not in pinned]
    by_monomial = {}
    for j in columns:
        k, i = divmod(j, r1)
        _charge(budget, len(forms[i]))
        for m, c in forms[i].items():
            by_monomial.setdefault(m + units[k], {})[j] = c
    rows = sorted(by_monomial.values(), key=max)
    pivots = {max(row): row for row in _gauss_jordan(rows, p, budget)}
    scale = lcm(*(row[j] for j, row in pivots.items()))
    return [
        _field_row(
            {f: scale} | {j: -row[f] * scale // row[j] for j, row in pivots.items() if f in row}, p
        )
        for f in columns
        if f not in pivots
    ]


def linear_syzygies(forms):
    """A basis of the linear syzygies of `forms`, r+1 forms of P^r, which
    both the Jacobian dual rule and the Hilbert-Burch rule read: the
    degree-1 `_syzygy_kernel` of the forms scaled to integers, whose entry
    k*(r+1) + i is a_ki, the coefficient of x_k in that of g_i.  None,
    before any product, when the forms are not as many as the variables
    or the ring has parameters: neither rule applies there.  The forms
    are checked by `_form_degree` first."""
    _form_degree(forms)
    ctx = forms[0].ctx
    if ctx.n_params or len(forms) != ctx.nvars:
        return None
    p = ctx.field.characteristic
    forms = [_integral(g.terms, p)[0] for g in forms]
    return _syzygy_kernel(forms, _monomials(ctx, 1), p, _budget())


def jacobian_dual_birational(forms, syzygies):
    """True when the weak Jacobian dual psi of `forms`, r+1 forms of
    P^r, read off `syzygies`, their `linear_syzygies`, has rank r at g(p)
    for one of the fixed `_jacobian_points` p, which proves the map
    birational onto P^r (see the module docstring); False when no point
    does, and at once when `syzygies` is None or holds fewer than r
    syzygies.

    The forms are those `linear_syzygies` checked, and are scaled to
    integers over Q.  psi(g(p)) is ranked by `_gauss_jordan`, stopped at
    r pivots.  Each form term evaluated and each row operation costs one
    budget step.
    """
    r = len(forms) - 1
    if syzygies is None or len(syzygies) < r:
        return False
    ctx = forms[0].ctx
    p = ctx.field.characteristic
    budget = _budget()
    supports = [_support(ctx, _integral(g.terms, p)[0]) for g in forms]
    for point in _jacobian_points(r + 1, p):
        values, _ = _evaluated(supports, point, p, budget)
        rows = [
            _field_row({k: sum(syz.get(k * (r + 1) + i, 0) * v for i, v in enumerate(values))
                        for k in range(r + 1)}, p)
            for syz in syzygies
        ]
        if len(_gauss_jordan(rows, p, budget, stop=r)) == r:
            return True
    return False


def _common_coordinate_zero(M):
    """True when every entry of M vanishes at one coordinate point, the
    point whose one nonzero coordinate is x_k: then I_1(M) has a zero in
    P^(n-1), so its height is below n, the number of variables.  An
    entry vanishes there unless it has a term in x_k alone, or a constant
    term, which no point kills."""
    unpack = M.ctx.packing.unpack
    alone = set()
    for row in M.entries:
        for entry in row:
            for m in entry.terms:
                support = [k for k, x in enumerate(unpack(m)) if x]
                if not support:
                    return False
                if len(support) == 1:
                    alone.add(support[0])
    return len(alone) < M.ctx.nvars


def presents_linear_type(M, forms):
    """True when the (r+1) x r matrix M presents the ideal I of `forms`,
    g_0..g_r, and satisfies G_{r+1}, so that I is perfect of codimension
    2 and of linear type (see `ratmap`): its signed maximal minors, the
    i-th (-1)^i times the minor dropping row i, as
    `families.signed_maximal_minors` takes them, are c*g_i for one
    constant c != 0, and `check_Gm(M, r+1)` holds, whose row i = 1 is
    ht I >= 2.  The cheap tests come first.  When r+1 is the number of
    variables, entries that all vanish at one coordinate point fail
    G_{r+1} at i = r, which asks ht I_1(M) > r, since I_1(M) then has a
    zero; such a matrix expands no minor.  A matrix whose minors are not
    c*g computes no height."""
    ctx = M.ctx
    if M.nrows != len(forms) or M.ncols != M.nrows - 1:
        raise RingError("a presentation of r+1 forms is an (r+1) x r matrix")
    if M.nrows == ctx.nvars and _common_coordinate_zero(M):
        return False
    signed = [m if i % 2 == 0 else -m for i, m in enumerate(reversed(minors(M, M.ncols)))]
    lead = max(forms[0].terms)
    # c = a/b, compared as b*m = a*g, which runs no Fraction arithmetic
    a, b = signed[0].terms.get(lead, 0), forms[0].terms[lead]
    if not a or any(m.scale(b) != g.scale(a) for m, g in zip(signed, forms)):
        return False
    return check_Gm(M, M.nrows).verdict


def hilbert_burch_presentation(forms, syzygies):
    """A presentation matrix of the ideal of `forms`, r+1 forms of P^r of
    degree d, whose column degrees mu_1, ..., mu_r are weakly increasing,
    when `presents_linear_type` certifies the one it recovers: then deg F
    = prod mu_j (see `ratmap`), with mu read back by
    `conditions.column_degrees`, and `hilbert_burch_sfib` reads the
    saturated fiber cone off it.  None otherwise, and at once when
    `syzygies`, their `linear_syzygies`, is None or r = 0.  The forms are
    those `linear_syzygies` checked.

    The matrix is recovered by linear algebra, one column degree e =
    1, 2, ... at a time: a basis of the syzygies of degree e modulo the
    multiples of the columns found so far becomes columns.  With P the
    pivot columns of the reduced echelon form of those multiples, the
    syzygies whose entries at P are 0 are such a basis: each syzygy is
    one of them plus a combination of multiples, and no nonzero
    combination of multiples is 0 at P.  So they are `syzygies` for
    e = 1, and else the `_syzygy_kernel` of degree e of the forms scaled
    to integers with P pinned.  The last column is looked for in degree
    d - sum(mu) alone.  The search declines once it holds more
    than r columns, when the columns still to find cannot fit into
    degree d, and before a kernel of more than `_KERNEL_COLUMNS`
    columns.  Row i of the matrix is scaled back to the form g_i.  Each
    product term formed and each row operation costs one budget step.
    The test is one-sided: forms it does not certify take the Rees route.
    """
    r = len(forms) - 1
    if syzygies is None or r < 1:
        return None
    ctx = forms[0].ctx
    # the forms are those `linear_syzygies` checked: of one degree d
    d = sum(ctx.packing.unpack(max(forms[0].terms)))
    p = ctx.field.characteristic
    integral, scales = zip(*(_integral(g.terms, p) for g in forms))
    budget = _budget()
    columns, mu = [], []
    e = 1
    while len(mu) < r:
        left = r - len(mu)
        if sum(mu) + left * e > d:
            return None
        if left == 1:
            e = d - sum(mu)
        if e > 1 and (r + 1) * comb(e + r, r) > _KERNEL_COLUMNS:
            return None
        units = _monomials(ctx, e)
        offset = {u: k * (r + 1) for k, u in enumerate(units)}
        multiples = [
            {offset[w + m] + i: c for i, g in enumerate(col) for m, c in g.items()}
            for col, deg in zip(columns, mu)
            for w in _monomials(ctx, e - deg)
        ]
        pinned = {max(row) for row in _gauss_jordan(multiples, p, budget)}
        new = syzygies if e == 1 else _syzygy_kernel(integral, units, p, budget, pinned)
        if len(mu) + len(new) > r:
            return None
        for syz in new:
            col = [{} for _ in forms]
            for j, c in syz.items():
                k, i = divmod(j, r + 1)
                col[i][units[k]] = c
            columns.append(col)
        mu += [e] * len(new)
        e += 1
    rows = [
        [Poly(ctx, {m: c * s for m, c in col[i].items()}, _clean=True) for col in columns]
        for i, s in enumerate(scales)
    ]
    M = PresentationMatrix(ctx, rows)
    return M if presents_linear_type(M, forms) else None


def hilbert_burch_sfib(M, n):
    """dim [(I^n)^sat]_{nd} for the ideal I of r+1 forms of P^r of degree
    d that M, an (r+1) x r matrix of column degrees mu_j certified by
    `presents_linear_type`, presents: C(n+r, r) + dim ker delta_n (see
    the module docstring), with no power and no basis.

    delta_n : H^r(O(-d)) (x) k[y]_(n-r) -> sum_j H^r(O(mu_j - d)) (x)
    k[y]_(n-r+1) multiplies by L_j = sum_i M_ij y_i, and x^gamma sends
    x^-alpha to x^(gamma-alpha), or to 0 once an exponent reaches 0.
    When every d - mu_j <= r its targets are 0, and the value is
    C(n+r, r) + C(d-1, r)*C(n, r) from no product.  Else its rank is one
    `_gauss_jordan` pass over one row per target basis element, sorted
    by largest column, each column j of M scaled to integers over Q.
    Each product term and each row operation costs one budget step; the
    product terms are charged before any is formed, so the budget bounds
    the kernel's memory too."""
    mu = column_degrees(M)
    r = M.ncols
    d = sum(mu)
    # dim H^r(P^r, O(-d)) = C(d-1, r) and dim k[y]_(n-r) = C(n, r)
    value = comb(n + r, r) + comb(d - 1, r) * comb(n, r)
    if all(d - m <= r for m in mu):
        return value
    p = M.ctx.field.characteristic
    unpack = M.ctx.packing.unpack
    # the inverse monomials x^-alpha spanning H^r(P^r, O(-d))
    top = [tuple(e + 1 for e in u) for u in monomials_of_degree(r + 1, d - r - 1)]
    # (alpha's index, target, i, c) for each term c*x^gamma of M_ij with
    # x^gamma*x^-alpha = x^-beta nonzero, whose target is (j, beta)
    products = []
    for j, m in enumerate(mu):
        if d - m <= r:
            # H^r(P^r, O(mu_j - d)) = 0
            continue
        column, _ = _integral(
            {(i, e): c for i, row in enumerate(M.entries) for e, c in row[j].terms.items()}, p
        )
        for (i, e), c in column.items():
            gamma = unpack(e)
            for a, alpha in enumerate(top):
                beta = tuple(x - g for x, g in zip(alpha, gamma))
                if min(beta) >= 1:
                    products.append((a, (j, beta), i, c))
    budget = _budget()
    _charge(budget, len(products) * comb(n, r))
    ys = list(monomials_of_degree(r + 1, n - r))
    # y_i*nu for each source monomial nu, by i
    shifted = [[nu[:i] + (nu[i] + 1,) + nu[i + 1 :] for i in range(r + 1)] for nu in ys]
    rows = {}
    for a, target, i, c in products:
        for b, by_i in enumerate(shifted):
            rows.setdefault((target, by_i[i]), {})[a * len(ys) + b] = c
    return value - len(_gauss_jordan(sorted(rows.values(), key=max), p, budget))


@dataclass(frozen=True)
class SpecializationResult:
    """Outcome of comparing spec(generic Rees) against the Rees ideal of
    the specialized forms: `kind` is isomorphism or proper_kernel, and a
    proper kernel names a witness generator missing downstairs."""

    kind: str
    witness: object


def specialization_compare(forms, point, generic):
    """Does blowing up commute with this specialization?  `generic` is
    the Rees ideal of the parametric `forms`.

    The specialized generic Rees ideal always sits inside the Rees ideal
    of the specialized forms; equality means the blowup of the special
    member is the fiber of the family.  Otherwise the defect is exhibited
    by the first element of the reduced basis of the special Rees ideal
    that does not reduce to zero against the specialized generic one.
    """
    special = specialize_forms(forms, point)
    spec = specialize_rees(generic, point)
    ny = spec.ctx.nvars - (forms[0].ctx.nvars - forms[0].ctx.n_params)
    direct = rees_ideal(special, y_names=spec.ctx.var_names[-ny:])
    if direct.ctx != spec.ctx:
        raise AssertionError("specialized ambient rings disagree")
    for g in spec.gens:
        if normal_form(g, direct):
            raise AssertionError("containment of the specialized ideal failed")
    for g in groebner_basis(direct):
        if normal_form(g, spec):
            return SpecializationResult("proper_kernel", g)
    return SpecializationResult("isomorphism", None)
