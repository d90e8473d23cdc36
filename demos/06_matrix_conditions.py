"""
Fitting ideals and the G/F conditions
=====================================

A presentation matrix carries numerical conditions controlling how its
minor ideals sit in the ring: G_m asks each Fitting height to clear its
index, F_m asks for a uniform margin.  Certificates list every height.
"""

from reesdeg.conditions import (
    PresentationMatrix,
    check_Fm,
    check_Gm,
    determinant,
    fitting_ideal,
    height,
)
from reesdeg.ring import FieldSpec, RingCtx, parse_poly

ctx = RingCtx(("x", "y", "z"), FieldSpec(32003))


def matrix(rows):
    return PresentationMatrix(
        ctx, [[parse_poly(e, ctx) for e in row] for row in rows]
    )


# determinants are exact: the top minor of a memoized first-row chain
M = matrix([["x", "y"], ["y", "z"]])
print("det =", determinant(M.entries))

# heights of Fitting ideals of a 3x2 presentation
N = matrix([["x", "z*y"], ["-y", "z*x + y^2"], ["z", "z*x"]])
for i in (1, 2):
    print("Fitt_%d height:" % i, height(fitting_ideal(N, i)))

cert = check_Gm(N, 3)
print(cert.condition, "holds" if cert.verdict else "fails")
for i, size, ht, threshold, ok in cert.table:
    print("   i=%d  %dx%d minors  height %s  needs > %d  %s" % (
        i, size, size, ht, threshold, "ok" if ok else "BAD"
    ))

# the same matrix with the corner zeroed loses G_3 but keeps F_0
Z = matrix([["x", "z*y"], ["-y", "z*x + y^2"], ["0", "z*x"]])
print("zeroed corner: G_3", check_Gm(Z, 3).verdict, "| F_0", check_Fm(Z, 0).verdict)
