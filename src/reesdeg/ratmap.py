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
"""

from dataclasses import dataclass
from math import comb

from .blowup import _fiber_cone_summary, _form_degree, rees_ideal
from .groebner import IdealHandle, saturate
from .hilbert import dim_degree, lead_ideal, weighted_numerator
from .ring import Poly, RingError, format_poly, format_ring_header, parse_poly, parse_ring_header

NOT_GENERICALLY_FINITE = "not-generically-finite"

DEFAULT_TRIALS = 3
DEFAULT_SEED = 17


@dataclass(frozen=True)
class RationalMapSpec:
    """Validated map data: forms of common degree d from P^r to P^s."""

    forms: tuple
    r: int
    s: int
    degree: int

    @property
    def ctx(self):
        return self.forms[0].ctx


def rational_map(forms):
    forms = tuple(forms)
    if not forms:
        raise RingError("a rational map needs at least one form")
    ctx = forms[0].ctx
    if ctx.n_params:
        raise RingError("rational maps take parameter-free forms")
    return RationalMapSpec(forms, ctx.nvars - 1, len(forms) - 1, _form_degree(forms))


def image_summary(spec, rees=None):
    """Hilbert data of the image, read off the leads of the Rees basis
    that are free of x; `rees`, the Rees ideal of the forms, may be
    passed in to share its basis."""
    return _fiber_cone_summary(list(spec.forms), rees)


def projective_degrees(spec, rees=None):
    """(d_0, ..., d_r): d_i is the coefficient of u^i v^(s-i) in
    K(1-u, 1-v), the class of the graph of the map in P^r x P^s, where
    K(u, v) is the bigraded numerator of S/in(R) for the Rees ideal R
    (passed in as `rees` to share its basis).  d_0 = 1 and
    d_r = deg F * deg Y.

    K comes from the weighted numerator with x of weight 1 and y of
    weight W, one more than the x-degree of the lcm of the leads: no
    term of K has a larger x-degree, so z^(a + W*b) is u^a v^b.
    """
    if rees is None:
        rees = rees_ideal(list(spec.forms))
    nx, s = spec.r + 1, spec.s
    leads = lead_ideal(rees)
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


def degree_map(spec, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED, rees=None):
    """Degree of the map onto its image, d_r / deg Y from the class of
    the graph.  Returns (value or marker, log); the log is empty, since
    the answer is exact.  `rees`, the Rees ideal of the forms, may be
    passed in to share its basis.

    `trials` and `seed` are validated and otherwise unused, and the log
    stays in the result, because the span tracer in perfbench/tracer.py
    binds `trials` through this signature and reads `result[1]`.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1, got %d" % trials)
    if rees is None:
        rees = rees_ideal(list(spec.forms))
    img = image_summary(spec, rees=rees)
    if img.proj_dim_of_scheme != spec.r:
        return NOT_GENERICALLY_FINITE, ()
    top = projective_degrees(spec, rees)[-1]
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
    rees = rees_ideal(list(spec.forms))
    img = image_summary(spec, rees=rees)
    spread = img.dim
    dim_image = img.proj_dim_of_scheme
    deg_image = img.degree
    if dim_image < spec.r:
        return DegreeReport(
            NOT_GENERICALLY_FINITE, deg_image, dim_image, spread, None
        )
    # through the module attribute, which perfbench's self-test replaces
    # to inject a wrong degree
    value, _ = degree_map(spec, rees=rees)
    return DegreeReport(value, deg_image, dim_image, spread, projective_degrees(spec, rees)[-1])


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
