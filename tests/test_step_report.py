"""The step report counts the work of one command line, chain products
and empty remainders included, leaves the engine as it found it, fails
on a wrong answer, with --times adds each command's wall time after a
warm-up and the part of it spent at the text boundary, and with --labels
adds a row per operation label."""

import argparse

import reesdeg.blowup as blowup
import reesdeg.cli as cli
import reesdeg.conditions as conditions
import reesdeg.groebner as gb
import reesdeg.ratmap as ratmap
from reesdeg.ring import FieldSpec, RingCtx, parse_poly
from step_report import IO_FUNCTIONS, counting, main, run_op, workload_counts
from workloads import Workload


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


def test_chain_counts_the_minor_products(tmp_path, monkeypatch):
    sums = (conditions._expansion, conditions._pointwise)
    ctx = RingCtx(("x0", "x1", "x2"), FieldSpec(32003))

    def conditions_on(rows):
        M = conditions.PresentationMatrix(ctx, [[parse_poly(e, ctx) for e in row] for row in rows])
        path = tmp_path / "m.txt"
        path.write_text(conditions.serialize_matrix(M))
        return run_op(["conditions", "--matrix", str(path)])

    rc, counts = conditions_on([["x0", "x1"], ["x1", "x2"], ["x2", "x0 + x1"]])
    # the three 2-minors take two products each on the line of the
    # coprimality test, one step apiece; the entries are the 1-minors
    # and take none
    assert rc == 0 and counts["chain"] == 6 and counts["steps"] > 6
    rc, counts = run_op(["rees", "--map", "x0^2, x1^2"])
    assert rc == 0 and counts["chain"] == 0
    assert (conditions._expansion, conditions._pointwise) == sums
    # products on the line and on values, each seen by its own sum
    seen = {"line": [], "values": []}
    monkeypatch.setattr(
        conditions, "_expansion",
        lambda products, p: seen["line"].append(len(products)) or sums[0](products, p),
    )
    monkeypatch.setattr(
        conditions, "_pointwise",
        lambda products, q: seen["values"].append(len(products)) or sums[1](products, q),
    )
    rc, counts = conditions_on(
        [["x0", "x1", "x2"], ["x1", "x2", "x0"], ["x2", "x0 + x1", "x1"], ["x0 + x2", "x1", "x0 - x2"]]
    )
    # Fitt_1 reads the 3-minors on rows {1, 2, 3}, {0, 2, 3} and
    # {0, 1, 3} on the line, 3 products each, and the 6 2-minors below
    # them on rows {2, 3} and {1, 3}, 2 each: 21.  Fitt_2 streams the
    # values of its 2-minors, and the first 6, on the same rows, span S_2:
    # 12 products
    assert rc == 0 and sum(seen["line"]) == 21 and sum(seen["values"]) == 12
    assert counts["chain"] == 21 + 12
    table, _ = workload_counts("rational_q", 1, 1)
    # conditions takes minors, and rees takes none
    assert table["conditions"]["chain"] > 0 and table["rees"]["chain"] == 0


def test_koszul_counts_the_maps_the_exit_certifies(capsys):
    koszul = blowup._koszul_degrees
    # two coprime forms of P^1, and the Cremona map, which the Jacobian
    # dual rule certifies before the Hilbert-Burch rule is read
    rc, counts = run_op(["degree", "--map", "x0^2, x1^2"])
    assert rc == 0 and counts["koszul"] == 1
    rc, counts = run_op(["degree", "--map", "x1*x2, x0*x2, x0*x1"])
    assert rc == 0 and counts["koszul"] == 0
    # x0^2, x0*x1, x1^2 of P^2: the linear column (x1, -x0, 0) is not
    # m-primary, so the exit declines and the search declines too
    rc, counts = run_op(["degree", "--map", "x0^2, x0*x1, x1^2", "--ring", "x0 x1 x2 over 32003"])
    assert rc == 0 and counts["koszul"] == 0 and counts["runs"] == 1
    assert blowup._koszul_degrees is koszul
    table, _ = workload_counts("saturate_fp", 1, 1, labels=True)
    # the exit certifies the (1, 2), (2, 2) and (2, 3) instances and x0^2,
    # x1^2 for degree and jmult; the (1, 1) instance is certified
    # birational first, and sfib-hf keeps the saturation route on P^1
    for command in ("degree", "jmult"):
        assert table[command]["koszul"] == 4
        assert [table[command + " " + name]["koszul"] for name in ("hb11", "sq")] == [0, 1]
    assert table["sfib-hf"]["koszul"] == table["sfib-hf hb12"]["koszul"] == 1
    assert table["sweep"]["koszul"] == 0
    assert main(["--seed", "1", "--rounds", "1", "--workload", "saturate_fp"]) == 0
    header = capsys.readouterr().out.splitlines()[1].split()
    assert header[header.index("chain") + 1] == "koszul"


def test_raised_counts_the_rows_of_the_span_tests(capsys):
    raised = conditions._raised
    # x0^2, x1^2: the 2d = 4 rows of the Sylvester block of the exit,
    # the two forms on the line each raised by 1 and t
    rc, counts = run_op(["degree", "--map", "x0^2, x1^2"])
    assert rc == 0 and counts["raised"] == 4
    rc, counts = run_op(["rees", "--map", "x0^2, x1^2"])
    assert rc == 0 and counts["raised"] == 0
    assert conditions._raised is blowup._raised is raised
    table, _ = workload_counts("eliminate_fp", 1, 1, labels=True)
    # the height pass streams the minors of the linear 6x5 matrix
    assert table["conditions m65"]["raised"] > 0 and table["rees"]["raised"] == 0
    assert main(["--seed", "1", "--rounds", "1", "--workload", "eliminate_fp"]) == 0
    header = capsys.readouterr().out.splitlines()[1].split()
    assert header[header.index("koszul") + 1] == "raised"


def test_zero_counts_the_empty_remainders(capsys):
    ctx = RingCtx(("x", "y"), FieldSpec(32003))
    I = gb.ideal(ctx, [parse_poly("x^2 - y^2", ctx)])
    with counting() as (counts, _):
        # x^3 - x*y^2 lies in I; x^3 leaves x*y^2
        assert not gb.normal_form(parse_poly("x^3 - x*y^2", ctx), I)
        assert gb.normal_form(parse_poly("x^3", ctx), I)
    # one generator makes no S-pair, so both calls are the normal forms
    assert counts["reduce"] == 2 and counts["zero"] == 1
    table, _ = workload_counts("rational_q", 1, 1)
    assert all(row["zero"] <= row["reduce"] for row in table.values())
    assert table["gr-dim"]["zero"] > 0
    assert main(["--seed", "1", "--rounds", "1", "--workload", "rational_q"]) == 0
    header = capsys.readouterr().out.splitlines()[1].split()
    assert header[header.index("reduce") + 1] == "zero"


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


def test_times_add_two_columns(capsys):
    argv = ["--seed", "1", "--rounds", "1", "--workload", "rational_q"]
    assert main(argv) == 0
    plain = capsys.readouterr().out.splitlines()
    assert main(argv + ["--times"]) == 0
    timed = capsys.readouterr().out.splitlines()
    # the same counts, with ms and share after them
    assert [line[: len(p)] for line, p in zip(timed, plain)] == plain
    assert len(timed) == len(plain)
    assert timed[1].split()[-2:] == ["ms", "share"] and "ms" not in plain[1]
    shares = [float(line.split()[-1].rstrip("%")) for line in timed[2:-1]]
    assert all(s > 0 for s in shares) and abs(sum(shares) - 100) < 0.5
    assert timed[-1].split()[-1] == "100.0%"
    assert float(timed[-1].split()[-2]) > 0


def test_times_split_off_the_text_boundary(capsys):
    wrapped = [getattr(cli, name) for name in IO_FUNCTIONS]
    parse_known_args = argparse.ArgumentParser.parse_known_args
    table, _ = workload_counts("rational_q", 1, 1, times=True)
    # every command parses its command line and writes its answer
    assert all(0 < row["io"] < row["seconds"] for row in table.values())
    assert [getattr(cli, name) for name in IO_FUNCTIONS] == wrapped
    assert argparse.ArgumentParser.parse_known_args is parse_known_args
    argv = ["--seed", "1", "--rounds", "1", "--workload", "rational_q", "--times"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[-4:] == ["ms", "io", "ms", "share"]
    total = lines[-1].split()
    assert 0 < float(total[-2]) < float(total[-3])


def test_times_run_a_warm_up_first(monkeypatch):
    warmed = []
    inner = Workload.warm_up_ops

    def warm_up_ops(self):
        warmed.extend(inner(self))
        return inner(self)

    monkeypatch.setattr(Workload, "warm_up_ops", warm_up_ops)
    table, _ = workload_counts("rational_q", 1, 1)
    assert warmed == [] and all("seconds" not in row for row in table.values())
    table, _ = workload_counts("rational_q", 1, 1, times=True)
    # one warm-up operation per command, none of them counted
    assert sorted(op.argv[0] for op in warmed) == sorted(table)
    assert all(row["seconds"] > 0 for row in table.values())


def test_labels_add_a_row_per_operation_label(capsys):
    argv = ["--seed", "1", "--rounds", "1", "--workload", "rational_q"]
    assert main(argv) == 0
    plain = capsys.readouterr().out.splitlines()
    assert main(argv + ["--labels"]) == 0
    labelled = capsys.readouterr().out.splitlines()
    # the plain lines, in order, each command's label rows below its row
    assert [line for line in labelled if not line.startswith("    ")] == plain
    assert len(labelled) > len(plain)
    table, _ = workload_counts("rational_q", 1, 1, labels=True)
    commands = [key for key in table if " " not in key]
    assert "image hb11" in table and "conditions hb12" in table
    for command in commands:
        rows = [row for key, row in table.items() if key.startswith(command + " ")]
        assert rows
        # the label rows add up to their command's row
        assert {col: sum(r[col] for r in rows) for col in table[command]} == table[command]
        at = labelled.index(next(line for line in labelled if line.split()[0] == command))
        assert labelled[at + 1].startswith("    " + command + " ")
