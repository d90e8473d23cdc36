"""Degree and image of a rational map between projective spaces.

A map P^r -> P^s is given by s+1 forms of a common degree.  The image
ideal is the fiber cone ideal of the forms, so its Hilbert data give the
dimension and degree of the image.  The degree of the map onto its image
is measured geometrically: pick a random source point, cut out the fiber
through its image value with the 2x2 minors of the evaluation matrix,
remove the base locus by saturating with one form that does not vanish
at the point, and read the fiber length off the Hilbert degree.

A special point can give a fiber of the wrong length either way: extra
multiplicity can merge into it, and fiber points can escape into the
base locus when the point lies on a curve through it.  The minimum over
independent trials is reported, so the sampling box is kept wide (all
of F_p, or [-2^16, 2^16] over Q) to make short special fibers unlikely.
"""

import random
import warnings
from dataclasses import dataclass

from .blowup import fiber_cone_ideal
from .groebner import IdealHandle, saturate
from .hilbert import dim_degree
from .ring import Poly, RingError

NOT_GENERICALLY_FINITE = "not-generically-finite"

DEFAULT_TRIALS = 3
RERUN_TRIALS = 7
DEFAULT_SEED = 17
SMALL_PRIME_BOUND = 1000
MAX_POINT_RESAMPLES = 50
# over Q, sample point coordinates are drawn from [-bound, bound]
Q_SAMPLE_BOUND = 2**16


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


def image_ideal(spec, budget=None):
    """Defining ideal of the closed image, in the target coordinate ring."""
    return fiber_cone_ideal(list(spec.forms), budget=budget)


def image_summary(spec, budget=None):
    return dim_degree(image_ideal(spec, budget=budget), budget=budget)


def analytic_spread_of_map(spec, budget=None):
    return image_summary(spec, budget=budget).dim


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


def _trial_rng(seed, index):
    return random.Random(seed * 2654435761 + index)


def _sample_point(spec, rng):
    ctx = spec.ctx
    p = ctx.field.characteristic
    for _ in range(MAX_POINT_RESAMPLES):
        if p:
            pt = [rng.randrange(p) for _ in range(ctx.nvars)]
        else:
            pt = [rng.randint(-Q_SAMPLE_BOUND, Q_SAMPLE_BOUND) for _ in range(ctx.nvars)]
        values = [g.evaluate(pt) for g in spec.forms]
        if any(values):
            return pt, values
    raise RingError("could not sample a point off the base locus")


def _fiber_ideal(spec, values):
    """2x2 minors of the matrix with rows (forms) and (values): the fiber
    through a point with image `values`, base locus included."""
    forms = spec.forms
    gens = []
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            g = forms[i].scale(values[j]) - forms[j].scale(values[i])
            if g:
                gens.append(g)
    return IdealHandle(spec.ctx, gens)


def _fiber_length(spec, values, budget=None):
    """Length of the saturated fiber through a point with image `values`;
    None when that fiber is not zero-dimensional in P^r.

    Saturating by the single form g_j with values[j] != 0 removes the
    whole base locus: on an associated prime P of the fiber ideal the
    minors give g_i*values[j] = g_j*values[i], so g_j lies in P exactly
    when every form does.  That saturation also leaves no component
    primary to (x0, ..., xr), since every form lies in that ideal.
    """
    fiber = _fiber_ideal(spec, values)
    if not fiber.gens:
        return None
    j = next(i for i, v in enumerate(values) if v)
    fiber = saturate(fiber, IdealHandle(spec.ctx, [spec.forms[j]]), budget=budget)
    summ = dim_degree(fiber, budget=budget)
    if summ.dim != 1:
        return None
    return summ.degree


def degree_map(spec, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED, budget=None):
    """Degree of the map onto its image: minimum fiber length over
    randomized trials.  Returns (value or marker, trial log), the log a
    list of (trial index, fiber length or marker).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1, got %d" % trials)
    if budget is not None and budget < 1:
        raise ValueError("budget must be at least 1, got %d" % budget)
    p = spec.ctx.field.characteristic
    if 0 < p < SMALL_PRIME_BOUND:
        warnings.warn(
            "prime %d is small; fiber sampling may be unreliable" % p, stacklevel=2
        )

    def run(n):
        log = []
        for idx in range(n):
            rng = _trial_rng(seed, idx)
            _, values = _sample_point(spec, rng)
            length = _fiber_length(spec, values, budget=budget)
            log.append((idx, length if length is not None else NOT_GENERICALLY_FINITE))
        return log

    log = run(trials)
    finite = [v for _, v in log if isinstance(v, int)]
    if len(set(log_v for _, log_v in log)) > 1 and trials < RERUN_TRIALS:
        warnings.warn("fiber trials disagree; rerunning at %d trials" % RERUN_TRIALS,
                      stacklevel=2)
        log = run(RERUN_TRIALS)
        finite = [v for _, v in log if isinstance(v, int)]
    if not finite:
        return NOT_GENERICALLY_FINITE, log
    return min(finite), log


def is_birational(spec, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED, budget=None):
    value, _ = degree_map(spec, trials=trials, seed=seed, budget=budget)
    return value == 1


@dataclass(frozen=True)
class DegreeReport:
    """Full account of one map: degree onto the image, image degree and
    dimension, analytic spread, the trial log, and the multiplicity of
    the saturated fiber cone (their product)."""

    deg_map: object
    deg_image: int
    dim_image: int
    analytic_spread: int
    trials: tuple
    sfib_multiplicity: object


def degree_report(spec, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED, budget=None):
    img = image_summary(spec, budget=budget)
    spread = img.dim
    dim_image = img.proj_dim_of_scheme
    deg_image = img.degree
    if dim_image < spec.r:
        return DegreeReport(
            NOT_GENERICALLY_FINITE, deg_image, dim_image, spread, (), None
        )
    value, log = degree_map(spec, trials=trials, seed=seed, budget=budget)
    sfib = value * deg_image if isinstance(value, int) else None
    return DegreeReport(value, deg_image, dim_image, spread, tuple(log), sfib)


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
