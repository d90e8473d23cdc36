"""
Degrees of rational maps
========================

degree_report answers the basic projective questions about g: P^r -> P^s
given by forms of one degree: how big is the image, how many points in a
general fiber, is the map birational onto its image.
"""

from reesdeg.families import j_multiplicity
from reesdeg.ratmap import (
    base_locus,
    degree_report,
    is_birational,
    rational_map,
)
from reesdeg.ring import FieldSpec, RingCtx, parse_poly

ctx = RingCtx(("x0", "x1"), FieldSpec(32003))


def report(texts):
    spec = rational_map([parse_poly(t, ctx) for t in texts])
    rep = degree_report(spec)
    print("map", texts)
    print("   deg_map %s  deg_image %s  dim_image %s  spread %s" % (
        rep.deg_map,
        rep.deg_image,
        rep.dim_image,
        rep.analytic_spread,
    ))
    return spec


# the conic parametrization is birational onto a degree-2 curve
spec = report(["x0^2", "x0*x1", "x1^2"])
print("   birational:", is_birational(spec))

# dropping the middle coordinate gives a 2:1 cover of the line
report(["x0^2", "x1^2"])

# a map collapsing everything to one point has no finite fibers; the
# report carries a marker instead of a number
report(["x0^2", "x0^2 + x0^2"])

# base loci are saturated, with their codimension
spec = rational_map([parse_poly(t, ctx) for t in ("x0^2", "x0*x1")])
B, codim = base_locus(spec)
print("base locus of (x0^2, x0*x1): codim", codim)

# j-multiplicity of a zero-dimensional plane ideal: d * deg_map * deg_image
two = rational_map([parse_poly(t, ctx) for t in ("x0^2", "x1^2")])
print("j-multiplicity of (x0^2, x1^2):", j_multiplicity(two))
