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

A map with s = r whose ideal I is perfect of codimension 2 and of
linear type has its degree from no basis too.
`blowup.hilbert_burch_presentation` recovers an (r+1) x r matrix phi of
column degrees mu_1..mu_r whose columns are syzygies of the forms, and
`blowup.presents_linear_type` certifies it: the signed maximal minors
of phi are c*g_i for one constant c != 0, and phi satisfies G_{r+1},
whose row i = 1 is ht I >= 2.  Then three theorems give the degree:
- Hilbert-Burch, with the Buchsbaum-Eisenbud acyclicity criterion
  (ht I_r(phi) = ht I >= 2): 0 -> sum_j S(-d-mu_j) -> S(-d)^(r+1) -> I
  -> 0 is exact, so phi presents I, perfect of codimension 2.
- Herzog-Simis-Vasconcelos ("Koszul homology and blowing-up rings",
  1983): a perfect ideal of codimension 2 is strongly Cohen-Macaulay,
  and with G_{r+1}, which is G_inf for r+1 generators, it is of linear
  type.  Its Rees ideal is generated by the r forms sum_i phi_ij y_i, of
  bidegree (mu_j, 1).
- The graph has codimension r, so those r forms are a complete
  intersection, and the class of the graph is prod_j (mu_j u + v): d_i
  is the elementary symmetric function e_i(mu).  d_r = prod mu_j is not
  0, so the image is P^r, deg Y = 1 and deg F = prod mu_j.
The rule declines, and the map takes the Rees route, when the columns
found are more than r or their degrees cannot sum to d, when the
entries of phi all vanish at one coordinate point (I_1(phi) then has a
zero, and G_{r+1} fails at i = r), when the minors are not c*g with
c != 0, and when G_{r+1} fails.  So are declined the de Jonquieres
member at a = 0 (G_2 but not G_3), x0^2, x0*x1, x1^2 in P^2 (I_1(phi)
= (x0, x1)) and forms with a common factor (ht I = 1).  Both s = r
rules read one kernel, the linear syzygies, computed once per map.

For r <= 2 the Koszul complex certifies mu before phi is complete, and
no minor and no height is computed (`blowup._koszul_degrees`):
- r = 2: let a be a syzygy of degree e, the sum of the columns of
  least degree that the search finds, whose entries a_i and their
  multiples span S_{3e-2}.  Then (a) is m-primary, so a is a regular sequence, and the
  Koszul complex of a is exact at H_1 (depth sensitivity: Bruns-Herzog,
  Cohen-Macaulay Rings, Sect. 1.6).  As g.a = 0, g is a Koszul syzygy of
  a: g = a x b for a vector b of degree d - e, so phi = [a b] has
  maximal minors g, with c = 1.  With ht I >= 2, read off two forms
  coprime on a line (see `conditions`), the Buchsbaum-Eisenbud
  criterion ("What makes a complex exact?", J. Algebra 1973) makes
  0 -> S(-d-e) + S(-2d+e) -> S(-d)^3 -> I -> 0 exact.  G_3 holds too:
  ht Fitt_1 = ht I >= 2, and Fitt_2 = I_1(phi) holds (a), of height 3.
  So mu = (e, d - e), and the theorems above give deg F = e*(d - e).
- r = 1: two coprime binary forms are a regular sequence, presented by
  their Koszul column (-g_1, g_0), with G_2 from ht I = 2: mu = (d).
  The line is a change of coordinates of P^1, so this test is exact:
  forms it declines share a factor, ht I = 1 and G_2 fails, so the rule
  declines them with no search.
For r = 2 both tests are one-sided, and where one fails the search runs
to its end and `presents_linear_type` decides.  ht (a) = 2 is not
enough: H_1 vanishes only at grade 3.  The de Jonquieres member at
a = 0, of degree 1, has the linear column (x, -y, 0), of height 2, and
its forms are coprime on the line, but it is no (1, 2) map.  The line
may meet a base point over a small field, and the first columns may
not be m-primary, as in [[x0, b0], [x1, b1], [0, b2]]: such maps take
the search.

The context holds the `blowup.HilbertBurch` certificate: the column
degrees mu, which `degree_map` reads for `degree_report` and
`families.j_multiplicity`, and the matrix phi, built on its first
read.  The saturated fiber cone of such a map takes no power of I
either: `blowup.hilbert_burch_sfib` reads it off mu when every
d - mu_j <= r, and else off phi, from the Koszul complex of the graph
(the `blowup` docstring states the argument).  `sfib_hilbert_function`
reads it for r >= 2; a map of P^1, whose value is d*n + 1, keeps the
saturation route, which there costs about what the certificate alone
does.

A `RationalMapSpec` is the map's context: it computes each fact above
once, on first read.  One rule picks the route (`certified`): a
certificate stands in only for a Rees basis the context does not hold
yet, the Hilbert-Burch rule after the dual rule, and a context that
holds one, such as a certified family point's member
(`families.Family.member`), reads every answer off it.
"""

from dataclasses import dataclass
from functools import cached_property
from math import comb, prod

from .blowup import (
    _form_degree,
    _free_fiber_cone,
    _x_free_leads,
    fiber_cone_ideal,
    hilbert_burch_presentation,
    hilbert_burch_sfib,
    jacobian_dual_birational,
    jacobian_independent,
    linear_syzygies,
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
    def linear_syzygies(self):
        """The `blowup.linear_syzygies` that both rules below read."""
        return linear_syzygies(list(self.forms))

    @cached_property
    def birational(self):
        """The verdict of `blowup.jacobian_dual_birational`."""
        return jacobian_dual_birational(list(self.forms), self.linear_syzygies)

    @cached_property
    def hilbert_burch(self):
        """The `blowup.HilbertBurch` certificate of
        `blowup.hilbert_burch_presentation`, or None."""
        return hilbert_burch_presentation(list(self.forms), self.linear_syzygies)

    def hold_rees(self, rees):
        """Hold `rees`, the Rees ideal of the forms with its basis, built
        elsewhere, as a family does for a certified point."""
        vars(self)["rees"] = rees

    def certified(self, rule):
        """The route rule: the fact `rule`, "independent", "birational"
        or "hilbert_burch", when it certifies the map and the context
        holds no Rees ideal yet; else a false value.  A context that
        holds one reads no rule."""
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
    the graph; from no basis, 1 when the Jacobian dual rule certifies the
    map, prod mu_j when the Hilbert-Burch rule does, and the marker when
    s < r.  Returns (value or marker, log); the log is empty, since the
    answer is exact.

    `trials` and `seed` are validated and otherwise unused, and the log
    stays in the result, because the span tracer in perfbench/tracer.py
    binds `trials` through this signature and reads `result[1]`.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1, got %d" % trials)
    if spec.s < spec.r:
        # the image has dimension at most s
        return NOT_GENERICALLY_FINITE, ()
    if spec.certified("birational"):
        return 1, ()
    hb = spec.certified("hilbert_burch")
    if hb:
        return prod(hb.mu), ()
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
    """The DegreeReport of a map from one call of `degree_map`.  A map
    whose degree a certificate gave, with no Rees basis, is onto P^r:
    deg Y = 1, dim Y = r, spread r+1 and d_r = deg F.  Every other map
    reports the image of its context (`RationalMapSpec.image`)."""
    # through the module attribute, which perfbench's self-test replaces
    # to inject a wrong degree
    value, _ = degree_map(spec)
    finite = value != NOT_GENERICALLY_FINITE
    if finite and "rees" not in vars(spec):
        return DegreeReport(value, 1, spec.r, spec.r + 1, value)
    img = spec.image
    top = value * img.degree if finite else None
    return DegreeReport(value, img.degree, img.proj_dim_of_scheme, img.dim, top)


def sfib_hilbert_function(spec, n):
    """Value of the saturated fiber cone Hilbert function at n: the
    dimension of the degree n*d piece of the saturation of I^n.  A map
    the Jacobian dual rule certifies takes C(n+r, r) from no product and
    no basis (see the module docstring).  A map of P^r, r >= 2, that the
    Hilbert-Burch rule certifies takes `blowup.hilbert_burch_sfib` of its
    matrix phi, also from no product and no basis (see the `blowup`
    docstring), or from mu alone when every d - mu_j <= r.  A map of P^1
    reads no Hilbert-Burch fact here; it, every other map, and a
    certified map whose matrix the search cannot build within
    `conditions._KERNEL_COLUMNS` take `blowup.saturated_fiber_dim`."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    if n == 0:
        return 1
    if spec.certified("birational"):
        return comb(n + spec.r, n)
    # a map of P^1 keeps the saturation route, which on P^1 costs about
    # what the certificate alone does: `sfib-hf sq` (x0^2, x1^2) is the
    # one operation of perfbench's self-test whose saturation its tracer
    # check sees (ROADMAP item 7)
    hb = spec.certified("hilbert_burch") if spec.r > 1 else None
    value = hilbert_burch_sfib(hb, n) if hb else None
    return saturated_fiber_dim(list(spec.forms), n) if value is None else value


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
