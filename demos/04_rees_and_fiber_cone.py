"""
Rees algebras, fiber cones, saturated fiber functions
=====================================================

The blowup of an ideal is presented by its Rees ideal: all relations
among the generators, bigraded in (x, y).  Setting x to zero leaves the
fiber cone, whose dimension is the analytic spread.  A map's context,
`rational_map`, computes each of these once and holds it.
"""

from reesdeg.blowup import fiber_cone_ideal, rees_ideal
from reesdeg.groebner import groebner_basis
from reesdeg.ratmap import rational_map, sfib_hilbert_function
from reesdeg.ring import FieldSpec, RingCtx, parse_poly

ctx = RingCtx(("x0", "x1"), FieldSpec(0))
conic = [parse_poly(t, ctx) for t in ("x0^2", "x0*x1", "x1^2")]

R = rees_ideal(conic)
print("Rees ideal of (x0^2, x0*x1, x1^2):")
for g in groebner_basis(R):
    # the Rees ring is bigraded by its x | y split: x0 x1 | y0 y1 y2
    print("   ", g, "  bidegree", g.bidegree(2))

# the pure-y generator survives into the fiber cone; the image of the
# induced map P^1 -> P^2 is the conic it cuts out
F = fiber_cone_ideal(conic, R)
print("fiber cone:", [str(g) for g in groebner_basis(F)])
# the analytic spread is the Krull dimension of the image's cone,
# which the map context reads off its own Rees basis
print("analytic spread:", rational_map(conic).image.dim)

# saturated fiber Hilbert function: for (x0^2, x1^2) it grows with
# slope 2, the product of map degree and image degree
squares = rational_map([parse_poly(t, ctx) for t in ("x0^2", "x1^2")])
values = [sfib_hilbert_function(squares, n) for n in range(6)]
print("saturated fiber HF of (x0^2, x1^2):", values)
