"""Degree and image of a rational map between projective spaces.

A map F: P^r -> P^s is given by s+1 forms of a common degree.  Its
graph is cut out by the Rees ideal R in k[x, y], and the image ideal
P = R cap k[y] (the fiber cone ideal) gives the dimension and degree of
the image Y.

The degree of F onto Y is read off the fiber of the graph over the
generic point of Y, as in Kronecker's method.  Computing P already
builds the reduced basis G of R in the block order (x | y).  Every
element of G that involves x has its x-leading coefficient outside P:
the y-parts of its terms are standard monomials modulo P, and P is
prime.  By Kalkbrener's specialization theorem those elements form a
Groebner basis of R over the function field K(Y), so the x-parts of
their leading monomials generate the initial ideal of the generic
fiber.  That fiber is a point of P^r over K(Y) whose residue field has
degree deg F, so deg F is the Hilbert degree of that monomial ideal in
k[x] when its Krull dimension is 1; otherwise F is not generically
finite.  No Groebner basis beyond the one the image needs is computed,
and the answer does not depend on any seed.
"""

from dataclasses import dataclass

from .blowup import fiber_cone_ideal, rees_ideal
from .groebner import IdealHandle, elimination_order, saturate
from .hilbert import dim_degree, lead_ideal, monomial_dim_degree
from .ring import Poly, RingError

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
    d = None
    for g in forms:
        if not g:
            raise RingError("zero form does not define a coordinate of a map")
        if g.ctx != ctx:
            raise RingError("forms from different rings")
        bd = g.bidegree()
        if bd is None or bd[1] != 0:
            raise RingError("map coordinates must be homogeneous forms in x")
        if d is None:
            d = bd[0]
        elif bd[0] != d:
            raise RingError("map coordinates have mixed degrees")
    if d == 0:
        raise RingError("constant forms do not define a rational map")
    return RationalMapSpec(forms, ctx.nvars - 1, len(forms) - 1, d)


def image_summary(spec, budget=None, rees=None):
    """Hilbert data of the image; `rees`, the Rees ideal of the forms,
    may be passed in to share its basis with `degree_map`."""
    fib = fiber_cone_ideal(list(spec.forms), budget=budget, rees=rees)
    return dim_degree(fib, budget=budget)


def is_generically_finite(spec, budget=None):
    """True when the image has the same dimension as the source."""
    return image_summary(spec, budget=budget).proj_dim_of_scheme == spec.r


def base_locus(spec, budget=None):
    """Saturated base ideal and its codimension (r+1 when empty)."""
    ctx = spec.ctx
    maxi = IdealHandle(ctx, [Poly.var(ctx, i) for i in range(ctx.nvars)])
    sat = saturate(IdealHandle(ctx, list(spec.forms)), maxi, budget=budget)
    summ = dim_degree(sat, budget=budget)
    ring_dim = summ.dim if summ.dim is not None else 0
    return sat, ctx.nvars - ring_dim


def degree_map(spec, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED, budget=None, rees=None):
    """Degree of the map onto its image, from the generic fiber of the
    graph.  Returns (value or marker, log); the log is empty, since the
    answer is exact.  `rees`, the Rees ideal of the forms, may be passed
    in to reuse the block basis the image computation cached on it.

    `trials` and `seed` are validated and otherwise unused, and the log
    stays in the result, because the span tracer in perfbench/tracer.py
    binds `trials` through this signature and reads `result[1]`.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1, got %d" % trials)
    if budget is not None and budget < 1:
        raise ValueError("budget must be at least 1, got %d" % budget)
    if rees is None:
        rees = rees_ideal(list(spec.forms), budget=budget)
    nx = spec.r + 1
    leads = lead_ideal(rees, order=elimination_order(rees.ctx, nx), budget=budget)
    fiber = monomial_dim_degree([m[:nx] for m in leads if any(m[:nx])], nx)
    if fiber.dim != 1:
        return NOT_GENERICALLY_FINITE, ()
    return fiber.degree, ()


def is_birational(spec, budget=None):
    value, _ = degree_map(spec, budget=budget)
    return value == 1


@dataclass(frozen=True)
class DegreeReport:
    """Full account of one map: degree onto the image, image degree and
    dimension, analytic spread, and the multiplicity of the saturated
    fiber cone (the product of the two degrees)."""

    deg_map: object
    deg_image: int
    dim_image: int
    analytic_spread: int
    sfib_multiplicity: object


def degree_report(spec, budget=None):
    rees = rees_ideal(list(spec.forms), budget=budget)
    img = image_summary(spec, budget=budget, rees=rees)
    spread = img.dim
    dim_image = img.proj_dim_of_scheme
    deg_image = img.degree
    if dim_image < spec.r:
        return DegreeReport(
            NOT_GENERICALLY_FINITE, deg_image, dim_image, spread, None
        )
    value, _ = degree_map(spec, budget=budget, rees=rees)
    sfib = value * deg_image if isinstance(value, int) else None
    return DegreeReport(value, deg_image, dim_image, spread, sfib)


def serialize_map(spec):
    from .ring import format_poly, format_ring_header

    head = format_ring_header(spec.ctx)
    return "%s\nmap: %s\n" % (head, ", ".join(format_poly(g) for g in spec.forms))


def parse_map_file(text):
    """Ring header, then `map: g0, g1, ..., gs` on its own line."""
    from .ring import parse_poly, parse_ring_header

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
