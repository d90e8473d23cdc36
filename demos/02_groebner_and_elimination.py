"""
Groebner bases and the ideal toolkit
====================================

Reduced bases are the workhorse: membership tests, canonical normal
forms, elimination, intersections, quotients, saturations.
"""

from reesdeg.groebner import (
    eliminate,
    groebner_basis,
    ideal,
    ideal_contains,
    intersect,
    normal_form,
    saturate,
)
from reesdeg.ring import FieldSpec, RingCtx, parse_poly

ctx = RingCtx(("x", "y", "z"), FieldSpec(0))


def I(*texts):
    return ideal(ctx, [parse_poly(t, ctx) for t in texts])


# the affine twisted cubic: y = x^2, z = x^3
curve = I("y - x^2", "z - x^3")
print("reduced basis:")
for g in groebner_basis(curve):
    print("   ", g)

# canonical remainders: x^4 reduces to y^2 modulo the curve
f = parse_poly("x^4", ctx)
print("NF(x^4) =", normal_form(f, curve))
print("x^6 - z^2 in I:", ideal_contains(curve, parse_poly("x^6 - z^2", ctx)))

# eliminating x projects onto the (y, z) plane: the image is y^3 = z^2.
# eliminate runs in the ring's own order, so the curve is written again
# in a ring whose leading block holds x alone
elim = RingCtx(("x", "y", "z"), FieldSpec(0), ("block", 1))
shadow = eliminate(ideal(elim, [parse_poly(t, elim) for t in ("y - x^2", "z - x^3")]), 1)
print("eliminate x:", [str(g) for g in groebner_basis(shadow)])

# intersection of two coordinate lines is the union's ideal
lines = intersect(I("x"), I("y"))
print("(x) cap (y) =", [str(g) for g in groebner_basis(lines)])

# saturation strips components supported on the irrelevant locus; in
# the plane, (x^2*y, x*y^2) is x*y plus an embedded point at the origin
plane = RingCtx(("x", "y"), FieldSpec(0))
emb = ideal(plane, [parse_poly(t, plane) for t in ("x^2*y", "x*y^2")])
m = ideal(plane, [parse_poly("x", plane), parse_poly("y", plane)])
sat = saturate(emb, m)
print("saturate (x^2*y, x*y^2):", [str(g) for g in groebner_basis(sat)])
print("rounds of quotienting needed:", sat.sat_exponent)

# every call above charges its steps against a budget so runaway
# computations fail fast instead of hanging; see groebner.BudgetExceeded.
# Inside `with step_budget(n):` all of them share one budget of n steps
