"""Degree and image of a rational map between projective spaces.

A map F: P^r -> P^s is given by s+1 forms of a common degree.  Its
graph is cut out by the Rees ideal R in k[x, y], and the image ideal
P = R cap k[y] (the fiber cone ideal) gives the dimension and degree of
the image Y.

Both are read off the class of the graph, from the leads of the one
Groebner basis of R that `rees_ideal` caches in the ring order.  The
quotient S/R is bigraded (x in degree (1, 0), y in (0, 1)), and so is
S/in(R), with the same bigraded Hilbert function.  In bidegrees (0, n)
that function is the Hilbert function of Y, so the image is the Hilbert
data of the leads free of x.  The bigraded series of S/in(R) is
K(u, v) / ((1-u)^(r+1) (1-v)^(s+1)), and the terms of K(1-u, 1-v) of
total degree s, the codimension of R, form the multidegree: the class
of the graph in P^r x P^s.  Its coefficient d_i of u^i v^(s-i) is the
i-th projective degree of F, and d_r = deg F * deg Y (Cid-Ruiz,
J. Algebra 2021; Miller-Sturmfels, Combinatorial Commutative Algebra,
Ch. 8).  So deg F is d_r / deg Y when Y has dimension r; otherwise F is
not generically finite.  No Groebner basis beyond the Rees basis is
computed, and the answer does not depend on any seed.

The image needs no basis at all when `blowup.jacobian_independent`
certifies the forms algebraically independent from their Jacobian (see
there): Y is then all of P^s, and for s < r the map is not generically
finite.  Forms the check does not certify take the Rees route.

A map with s = r is certified birational from its linear syzygies,
with no basis either (`blowup.jacobian_dual_birational`).  A syzygy
sum_i a_i g_i = 0 with a_i = sum_k a_ki x_k is the Rees element
sum_k x_k psi_k(y) of bidegree (1, 1), where psi_k = sum_i a_ki y_i,
and the rows psi of a basis of these syzygies form the weak Jacobian
dual.  As psi(g(x)) x = 0, it has rank at most r over k[y]/P, which is
k[g] inside k[x], so its rank there is that of psi(g(x)) over k(x).
Rank r at one image point g(p) gives an r-minor of psi that is not in
P.  Then the full Jacobian dual, read off every Rees element of
x-degree 1, has rank r too, and F is birational onto its image
(Doria-Hassanzadeh-Simis, "A characteristic-free criterion of
birationality", Adv. Math. 2012, Th. 2.18; in characteristic 0,
Russo-Simis, "On birational maps and Jacobian matrices", Compositio
Math. 2001).  Its image has dimension r, so it is all of P^r: deg F =
deg Y = 1 and d_r = 1.  F(I) = k[y_0..y_r] is then normal and the graph
Gamma -> P^r is proper and birational, so by Zariski's Main Theorem
[(I^n)^sat]_{nd} embeds in H^0(Gamma, O_Gamma(0, n)) = k[y]_n = F(I)_n:
the saturated fiber cone (Buse-Cid-Ruiz-D'Andrea, Proc. LMS 2020) is
F(I), of Hilbert function C(n+r, r).  The test is one-sided: a map it
does not certify takes the Rees route.

A `RationalMapSpec` is the map's context: it computes each fact above
once, on first read.  One rule picks the route (`certified`): a
certificate stands in only for a Rees basis the context does not hold
yet, and a context that holds one, such as a certified family point's
member (`families.Family.member`), reads every answer off it.
"""

from dataclasses import dataclass
from functools import cached_property
from math import comb

from .blowup import (
    _form_degree,
    _free_fiber_cone,
    _x_free_leads,
    fiber_cone_ideal,
    jacobian_dual_birational,
    jacobian_independent,
    rees_ideal,
    saturated_fiber_dim,
)
from .groebner import IdealHandle, saturate
from .hilbert import dim_degree, lead_ideal, monomial_dim_degree, weighted_numerator
from .ring import Poly, RingError, format_poly, format_ring_header, parse_poly, parse_ring_header

NOT_GENERICALLY_FINITE = "not-generically-finite"

DEFAULT_TRIALS = 3
DEFAULT_SEED = 17


@dataclass(frozen=True)
class RationalMapSpec:
    """The context of a map: forms of common degree d from P^r to P^s,
    validated once by `rational_map`.  Its facts are computed on first
    read and kept outside the dataclass fields, so eq and hash do not
    see them."""

    forms: tuple
    r: int
    s: int
    degree: int

    @property
    def ctx(self):
        return self.forms[0].ctx

    @cached_property
    def rees(self):
        """The Rees ideal, with its basis cached in the ring order."""
        return rees_ideal(list(self.forms))

    @cached_property
    def independent(self):
        """The verdict of `blowup.jacobian_independent`."""
        return jacobian_independent(list(self.forms))

    @cached_property
    def birational(self):
        """The verdict of `blowup.jacobian_dual_birational`."""
        return jacobian_dual_birational(list(self.forms))

    def hold_rees(self, rees):
        """Hold `rees`, the Rees ideal of the forms with its basis, built
        elsewhere, as a family does for a certified point."""
        vars(self)["rees"] = rees

    def certified(self, rule):
        """The route rule: True when the Jacobian `rule`, "independent"
        or "birational", certifies the map and the context holds no Rees
        ideal yet.  A context that holds one reads no rule."""
        return "rees" not in vars(self) and getattr(self, rule)

    @cached_property
    def fiber(self):
        """The fiber cone ideal: zero from no basis when the forms are
        certified independent, else read off the Rees basis."""
        if self.certified("independent"):
            return _free_fiber_cone(list(self.forms))
        return fiber_cone_ideal(list(self.forms), self.rees)

    @cached_property
    def image(self):
        """Hilbert data of the image: that of P^s when the forms are
        certified independent, else read off the leads of the Rees basis
        that are free of x."""
        if self.certified("independent"):
            return monomial_dim_degree([], self.s + 1)
        return monomial_dim_degree(_x_free_leads(self.rees, self.r + 1), self.s + 1)


def rational_map(forms):
    forms = tuple(forms)
    if not forms:
        raise RingError("a rational map needs at least one form")
    ctx = forms[0].ctx
    if ctx.n_params:
        raise RingError("rational maps take parameter-free forms")
    return RationalMapSpec(forms, ctx.nvars - 1, len(forms) - 1, _form_degree(forms))


def projective_degrees(spec):
    """(d_0, ..., d_r): d_i is the coefficient of u^i v^(s-i) in
    K(1-u, 1-v), the class of the graph of the map in P^r x P^s, where
    K(u, v) is the bigraded numerator of S/in(R) for the Rees ideal R of
    the context.  d_0 = 1 and d_r = deg F * deg Y.

    K comes from the weighted numerator with x of weight 1 and y of
    weight W, one more than the x-degree of the lcm of the leads: no
    term of K has a larger x-degree, so z^(a + W*b) is u^a v^b.
    """
    nx, s = spec.r + 1, spec.s
    leads = lead_ideal(spec.rees)
    w = 1 + sum(max((m[i] for m in leads), default=0) for i in range(nx))
    numer = weighted_numerator(leads, (1,) * nx + (w,) * (s + 1))
    degrees = [
        (-1) ** s * sum(c * comb(e % w, i) * comb(e // w, s - i) for e, c in numer.items())
        for i in range(min(nx, s + 1))
    ]
    # no term u^i v^(s-i) exists for i > s
    return tuple(degrees) + (0,) * (nx - len(degrees))


def base_locus(spec):
    """Saturated base ideal and its codimension (r+1 when empty)."""
    ctx = spec.ctx
    maxi = IdealHandle(ctx, [Poly.var(ctx, i) for i in range(ctx.nvars)])
    sat = saturate(IdealHandle(ctx, list(spec.forms)), maxi)
    summ = dim_degree(sat)
    ring_dim = summ.dim if summ.dim is not None else 0
    return sat, ctx.nvars - ring_dim


def degree_map(spec, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED):
    """Degree of the map onto its image, d_r / deg Y from the class of
    the graph, or 1 from no basis when the Jacobian dual rule certifies
    the map.  Returns (value or marker, log); the log is empty, since
    the answer is exact.

    `trials` and `seed` are validated and otherwise unused, and the log
    stays in the result, because the span tracer in perfbench/tracer.py
    binds `trials` through this signature and reads `result[1]`.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1, got %d" % trials)
    if spec.certified("birational"):
        return 1, ()
    spec.rees  # d_r needs the Rees basis, and the image is then read off it
    img = spec.image
    if img.proj_dim_of_scheme != spec.r:
        return NOT_GENERICALLY_FINITE, ()
    top = projective_degrees(spec)[-1]
    value, rest = divmod(top, img.degree)
    if rest or value < 1:
        raise AssertionError("d_r = %d is no positive multiple of deg Y = %d" % (top, img.degree))
    return value, ()


def is_birational(spec):
    value, _ = degree_map(spec)
    return value == 1


@dataclass(frozen=True)
class DegreeReport:
    """Full account of one map: degree onto the image, image degree and
    dimension, analytic spread, and the multiplicity of the saturated
    fiber cone, d_r = deg F * deg Y."""

    deg_map: object
    deg_image: int
    dim_image: int
    analytic_spread: int
    sfib_multiplicity: object


def degree_report(spec):
    """The DegreeReport of a map, read off its context.

    A map that the Jacobian dual rule certifies is birational onto P^r:
    deg F = 1, deg Y = 1, dim Y = r, spread r+1 and d_r = 1.  With s < r
    the map is not generically finite, and the report needs only the
    image, from no basis when the forms are certified independent.  Every
    other map needs d_r, and so the Rees basis.
    """
    if spec.certified("birational"):
        # the degree goes through the module attribute, as below
        value, _ = degree_map(spec)
        return DegreeReport(value, 1, spec.r, spec.r + 1, value)
    if spec.s >= spec.r:
        spec.rees  # d_r needs the Rees basis, and the image is then read off it
    img = spec.image
    dim_image = img.proj_dim_of_scheme
    if dim_image < spec.r:
        return DegreeReport(NOT_GENERICALLY_FINITE, img.degree, dim_image, img.dim, None)
    # through the module attribute, which perfbench's self-test replaces
    # to inject a wrong degree; d_r = deg F * deg Y, as degree_map asserts
    value, _ = degree_map(spec)
    return DegreeReport(value, img.degree, dim_image, img.dim, value * img.degree)


def sfib_hilbert_function(spec, n):
    """Value of the saturated fiber cone Hilbert function at n: the
    dimension of the degree n*d piece of the saturation of I^n.  A map
    the Jacobian dual rule certifies takes C(n+r, r) from no product and
    no basis (see the module docstring); every other map takes
    `blowup.saturated_fiber_dim`."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    if n == 0:
        return 1
    if spec.certified("birational"):
        return comb(n + spec.r, n)
    return saturated_fiber_dim(list(spec.forms), n)


def serialize_map(spec):
    head = format_ring_header(spec.ctx)
    return "%s\nmap: %s\n" % (head, ", ".join(format_poly(g) for g in spec.forms))


def parse_map_file(text):
    """Ring header, then `map: g0, g1, ..., gs` on its own line."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 2:
        raise RingError("map file needs a ring header and a map line")
    ctx = parse_ring_header(lines[0])
    if not lines[1].startswith("map:"):
        raise RingError("second line must start with 'map:'")
    body = lines[1][len("map:") :]
    forms = [parse_poly(part, ctx) for part in body.split(",")]
    return rational_map(forms)
