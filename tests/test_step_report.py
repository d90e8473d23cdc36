"""The step report counts the work of one command line, leaves the
engine as it found it, and fails on a wrong answer."""

import reesdeg.groebner as gb
import reesdeg.ratmap as ratmap
from step_report import main, run_op, workload_counts


def test_counts_one_listing():
    engine = (gb._Budget, gb._buchberger, gb._reduce, gb._reduce_tails)
    quad5 = "x0^2, x1^2, x2^2, x0*x1 - x1*x2, x0*x2 + x1*x2"
    rc, counts = run_op(["rees", "--map", quad5, "--prime", "32003"])
    assert rc == 0
    # one run eliminates t from the graph ideal, seeded by its own terms;
    # the listing then reduces the tails of the 15 Rees rows once
    assert counts["runs"] == 1 and counts["tails_rows"] == 15
    assert counts["steps"] > 0 and counts["reduce"] > 0
    rc, counts = run_op(["fiber-cone", "--map", quad5, "--prime", "32003"])
    assert rc == 0
    # the t-run alone: the fiber cone basis is the 7 Rees rows whose
    # leads are free of x, and the listing reduces their tails
    assert counts["runs"] == 1 and counts["tails_rows"] == 7
    assert (gb._Budget, gb._buchberger, gb._reduce, gb._reduce_tails) == engine


def test_wrong_answers_fail(monkeypatch, capsys):
    table, failures = workload_counts("saturate_fp", 1, 1)
    assert failures == [] and table["degree"]["failed"] == 0
    real = ratmap.degree_map
    monkeypatch.setattr(ratmap, "degree_map", lambda *a, **k: (real(*a, **k)[0] + 1, ()))
    table, failures = workload_counts("saturate_fp", 1, 1)
    # every degree operation reads the degree; at seed 1 the recorded
    # answers catch the maps that no family law covers
    assert table["degree"]["failed"] == 7
    assert len(failures) == sum(row["failed"] for row in table.values())
    assert main(["--seed", "1", "--rounds", "1", "--workload", "saturate_fp"]) == 1
    assert "FAILED saturate_fp round 0, degree" in capsys.readouterr().out


def test_exit_code_and_exceptions_fail(monkeypatch):
    rc, _ = run_op(["degree", "--map", "x0^2, x1^3"])
    assert rc == 2

    def broken(spec):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr("reesdeg.cli.degree_report", broken)
    rc, _ = run_op(["degree", "--map", "x0^2, x1^2"])
    assert rc == "exception ZeroDivisionError: injected"
