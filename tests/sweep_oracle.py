"""The per-point route of a family sweep: a test-only oracle for
`families.specialization_sweep` and the family rows of `gr-dim`, which
answer a point the family certifies from the specialized generic Rees
basis instead.

Here every point gets the special member's own Rees basis, through
`degree_report`, and its own gr basis, read off spec(generic Rees) +
(forms), whatever the leading coefficients of the generic graph basis
do there.
"""

from reesdeg.blowup import _gr_ideal, specialize_rees
from reesdeg.conditions import check_Gm
from reesdeg.families import SweepRow, specialized_family
from reesdeg.hilbert import dim_degree
from reesdeg.ratmap import degree_report, rational_map
from reesdeg.ring import RingError


def gr_dimension(generic, special, point):
    """dim of spec(generic Rees) + (special forms) at `point`, from the
    basis of that ideal."""
    return dim_degree(_gr_ideal(specialize_rees(generic, point), special)).dim


def sweep_rows(fam, points):
    """The rows of `specialization_sweep(fam, points)`, each point on
    the full route."""
    generic = fam.generic_rees
    r = fam.ctx.nvars - fam.ctx.n_params - 1
    rows = []
    for point in points:
        point = tuple(point) if isinstance(point, (tuple, list)) else (point,)
        try:
            sp = specialized_family(fam, point)
            rep = degree_report(rational_map(sp.forms))
            gdim = gr_dimension(generic, list(sp.forms), point)
            verdict = None
            if sp.matrix is not None:
                verdict = check_Gm(sp.matrix, r + 1).verdict
            rows.append(SweepRow(point, rep.deg_map, rep.deg_image, gdim, verdict, "ok"))
        except RingError as exc:
            rows.append(SweepRow(point, None, None, None, None, "error: %s" % exc))
    return rows


def gr_dim_rows(fam, points):
    """The rows `gr-dim --family` prints for the parsed points, each from
    its gr basis; a point that kills a form fails."""
    generic = fam.generic_rees
    return [
        {"point": list(pt), "gr_dim": gr_dimension(generic, specialized_family(fam, pt).forms, pt)}
        for pt in points
    ]
