"""The step report counts the work of one command line and leaves the
engine as it found it."""

import reesdeg.groebner as gb
from step_report import run_op


def test_counts_one_listing():
    engine = (gb._Budget, gb._buchberger, gb._reduce, gb._reduce_tails)
    quad5 = "x0^2, x1^2, x2^2, x0*x1 - x1*x2, x0*x2 + x1*x2"
    rc, counts = run_op(["rees", "--map", quad5, "--prime", "32003"])
    assert rc == 0
    # one run eliminates t from the graph ideal; the listing then reduces
    # the tails of the 15 Rees rows once
    assert counts["runs"] == 1 and counts["tails_rows"] == 15
    assert counts["steps"] > 0 and counts["reduce"] > 0
    assert (gb._Budget, gb._buchberger, gb._reduce, gb._reduce_tails) == engine
