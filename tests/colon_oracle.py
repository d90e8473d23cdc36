"""Colon ideals: a test-only oracle for saturation.

I : g comes from dividing the generators of I cap (g) by g, and I : J
intersects the colons by the generators of J.  Iterating I : J, I : J^2,
... until the chain stops growing gives I : J^infinity and the
saturation exponent independently of `saturate`.
"""

from reesdeg.groebner import IdealHandle, ideal_equal, intersect
from reesdeg.ring import Poly, RingError, poly_exact_div


def colon(I, g):
    """(I : g) for a single polynomial g, via (I cap (g)) / g."""
    if not isinstance(g, Poly) or g.ctx != I.ctx:
        raise RingError("colon divisor must live in the ideal's ring")
    if not g:
        return IdealHandle(I.ctx, [Poly.constant(I.ctx, 1)])
    cap = intersect(I, IdealHandle(I.ctx, [g]))
    return IdealHandle(I.ctx, [poly_exact_div(f, g) for f in cap.gens])


def colon_ideal(I, J):
    """(I : J) as the intersection of the single-generator colons."""
    gens = [g for g in J.gens if g]
    if not gens:
        return IdealHandle(I.ctx, [Poly.constant(I.ctx, 1)])
    out = colon(I, gens[0])
    for g in gens[1:]:
        out = intersect(out, colon(I, g))
    return out


def colon_chain_saturate(I, J, max_rounds=64):
    """I : J^infinity by iterating I : J, I : J^2, ... until the chain
    stops growing.  Returns the saturation and the number of strict
    steps."""
    cur = I
    for k in range(max_rounds):
        nxt = colon_ideal(cur, J)
        if ideal_equal(nxt, cur):
            return cur, k
        cur = nxt
    raise AssertionError("colon chain did not stabilize")
