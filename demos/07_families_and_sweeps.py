"""
Structured families and specialization sweeps
=============================================

Three constructions produce maps with known expected degrees: signed
maximal minors of a 3x2 matrix, submaximal Pfaffians of an alternating
5x5 matrix, and a one-parameter plane cubic family whose degree drops
at the special parameter value.
"""

from reesdeg.blowup import specialization_compare
from reesdeg.conditions import check_Gm
from reesdeg.families import FamilySpec, make_family, specialization_sweep
from reesdeg.ratmap import degree_report, rational_map

# matrix columns of degrees (1, 2): the minors map has degree 1*2 = 2
fam = make_family(FamilySpec("hilbert_burch", r=2, mu=(1, 2), seed=1))
rep = degree_report(rational_map(fam.forms))
print("3x2 minors, mu=(1,2): deg_map * deg_image =", rep.deg_map * rep.deg_image)
print("   G_3:", check_Gm(fam.matrix, 3).verdict)

# alternating 5x5 with linear entries: Pfaffian coordinates, birational
pf = make_family(FamilySpec("pfaffian", r=4, D=1, seed=3))
rep = degree_report(rational_map(pf.forms))
print("5x5 Pfaffians: deg_map", rep.deg_map, " G_5", check_Gm(pf.matrix, 5).verdict)

# the parametric cubic family: the leading coefficients of its generic
# graph basis are a and a^2, so every point a != 0 is certified and read
# off the specialized generic basis; a = 0 gets its own Rees and gr bases
dj = make_family(FamilySpec("dejonquieres", m=2))
print("sweep over a in {0, 1, 2}:")
print("  point  deg_map  deg_image  gr_dim  G_3")
for row in specialization_sweep(dj, [0, 1, 2]):
    print("  %-6s %-8s %-10s %-7s %s" % (
        row.point[0], row.deg_map, row.deg_image, row.gr_dim, row.g_condition
    ))

# why the a=0 member is different: its Rees ideal strictly contains the
# specialized generic one, which the family holds since the sweep, and
# the comparison names a missing relation
result = specialization_compare(list(dj.forms), (0,), dj.generic_rees)
print("specialization at a=0:", result.kind)
print("   witness:", result.witness)
result = specialization_compare(list(dj.forms), (1,), dj.generic_rees)
print("specialization at a=1:", result.kind)
