"""The per-point route of a family sweep: a test-only oracle for
`families.specialization_sweep` and the family rows of `gr-dim`, which
answer a point the family certifies from the specialized generic Rees
basis instead.

Here every point gets the special member's own Rees basis, through
`degree_report`, and its own gr basis, read off spec(generic Rees) +
(forms) by `gr_dimension_at`, whatever the leading coefficients of the
generic graph basis do there.
"""

from reesdeg.blowup import gr_dimension_at
from reesdeg.conditions import check_Gm
from reesdeg.families import SweepRow, specialized_family
from reesdeg.ratmap import degree_report, rational_map
from reesdeg.ring import RingError


def sweep_rows(fam, points):
    """The rows of `specialization_sweep(fam, points)`, each point on
    the full route."""
    generic = fam.generic_rees()
    r = fam.ctx.nvars - fam.ctx.n_params - 1
    rows = []
    for point in points:
        point = tuple(point) if isinstance(point, (tuple, list)) else (point,)
        try:
            sp = specialized_family(fam, point)
            rep = degree_report(rational_map(sp.forms))
            gdim = gr_dimension_at(
                list(fam.forms), point, generic=generic, special=list(sp.forms)
            )
            verdict = None
            if sp.matrix is not None:
                verdict = check_Gm(sp.matrix, r + 1).verdict
            rows.append(SweepRow(point, rep.deg_map, rep.deg_image, gdim, verdict, "ok"))
        except RingError as exc:
            rows.append(SweepRow(point, None, None, None, None, "error: %s" % exc))
    return rows


def gr_dim_rows(fam, points):
    """The rows `gr-dim --family` prints for the parsed points, each from
    its gr basis."""
    generic = fam.generic_rees()
    return [
        {"point": list(pt), "gr_dim": gr_dimension_at(list(fam.forms), pt, generic=generic)}
        for pt in points
    ]
