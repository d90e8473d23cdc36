import argparse
import importlib.util
import json
import os
import random
import subprocess
import sys
import time

import pytest

import reesdeg.families as families
import reesdeg.groebner as gb_mod
import reesdeg.ring as ring
from reesdeg.cli import COMMON_FLAGS, SUBCOMMAND_FLAGS, _load_family, build_parser, main
from reesdeg.groebner import DEFAULT_BUDGET, EXP_BOUND

MATRIX_A0 = """\
ring x y z over 32003 order grevlex
matrix 3 x 2
x, z*y
32002*y, z*x + y^2
0, z*x
"""


# the subcommands that read --map, with its --ring and --prime
MAP_COMMANDS = [name for name, flags in SUBCOMMAND_FLAGS.items() if "--map" in flags]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestDegree:
    def test_json_envelope(self, capsys):
        code, out = run(capsys, ["degree", "--map", "x0^2, x0*x1, x1^2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["command"] == "degree"
        assert payload["deg_map"] == 1
        assert payload["deg_image"] == 2
        assert payload["dim_image"] == 1
        assert payload["analytic_spread"] == 2
        assert payload["sfib_multiplicity"] == 2
        assert payload["prime"] == 32003
        assert payload["seed"] == 17

    def test_byte_identical_reruns(self, capsys):
        _, first = run(capsys, ["degree", "--map", "x0^3, x0*x1^2 + x1^3"])
        _, second = run(capsys, ["degree", "--map", "x0^3, x0*x1^2 + x1^3"])
        assert first == second

    def test_ring_inference_from_map_text(self, capsys):
        code, out = run(capsys, ["degree", "--map", "x0, x1"])
        assert code == 0
        assert json.loads(out)["deg_map"] == 1

    def test_explicit_ring_and_prime_zero(self, capsys):
        code, out = run(
            capsys,
            ["degree", "--map", "s^2, t^2", "--ring", "s t over 0"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["deg_map"] == 2
        assert payload["prime"] == 0

    def test_text_format(self, capsys):
        code, out = run(capsys, ["degree", "--map", "x0, x1", "--format", "text"])
        assert code == 0
        assert "deg_map: 1" in out

    def test_map_file(self, capsys, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("ring x0 x1 over 32003 order grevlex\nmap: x0^2, x1^2\n")
        code, out = run(capsys, ["degree", "--map", str(path)])
        assert code == 0
        assert json.loads(out)["deg_map"] == 2


class TestImageAndBlowup:
    def test_image_generators(self, capsys):
        code, out = run(capsys, ["image", "--map", "x0^2, x0*x1, x1^2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["generators"] == ["y1^2 + 32002*y0*y2"]
        assert payload["deg_image"] == 2
        assert payload["ring"].startswith("ring y0 y1 y2 over 32003")

    def test_rees_text_round_trips(self, capsys):
        code, out = run(
            capsys, ["rees", "--map", "x0^2, x0*x1, x1^2", "--format", "text"]
        )
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert lines[0].startswith("ring x0 x1 y0 y1 y2 over 32003")
        assert len(lines) == 4
        from reesdeg.groebner import parse_ideal

        I = parse_ideal(out)
        assert len(I.gens) == 3

    def test_fiber_cone(self, capsys):
        code, out = run(capsys, ["fiber-cone", "--map", "x0^2, x0*x1, x1^2"])
        assert code == 0
        assert json.loads(out)["generators"] == ["y1^2 + 32002*y0*y2"]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_each_generator_formatted_once(self, capsys, monkeypatch, fmt):
        # the Rees ideal of this map has 6 generators
        calls = []
        inner = ring.format_poly
        for mod in [m for name, m in sys.modules.items() if name.startswith("reesdeg")]:
            if getattr(mod, "format_poly", None) is inner:
                monkeypatch.setattr(mod, "format_poly", lambda f: calls.append(1) or inner(f))
        argv = ["rees", "--map", "x0^2, x0*x1, x1^2, x0*x2", "--format", fmt]
        code, out = run(capsys, argv)
        assert code == 0
        assert len(calls) == 6
        gens = json.loads(out)["generators"] if fmt == "json" else out.splitlines()[1:]
        assert len(gens) == 6

    def test_sfib_hf_values(self, capsys):
        code, out = run(
            capsys,
            ["sfib-hf", "--map", "x0^2, x1^2", "--points", "0,1,2,3"],
        )
        assert code == 0
        values = [row["value"] for row in json.loads(out)["values"]]
        assert values == [1, 3, 5, 7]


class TestConditions:
    def test_matrix_file_checks(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(MATRIX_A0)
        code, out = run(capsys, ["conditions", "--matrix", str(path), "--m", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["G"]["verdict"] is False
        assert payload["G"]["condition"] == "G_3"
        assert payload["F"]["verdict"] is True
        assert payload["F"]["condition"] == "F_0"
        heights = [row["height"] for row in payload["G"]["table"]]
        assert heights == [2, 2]

    def test_degree_past_packed_bound_is_two(self, capsys, tmp_path):
        # Fitt_1 of a 3 x 2 matrix takes 2-minors from the chain, and the
        # first one, x0^(2e) - 1, reaches EXP_BOUND: an error, not a wrap
        e = EXP_BOUND // 2
        path = tmp_path / "m.txt"
        path.write_text(
            "ring x0 over 32003\nmatrix 3 x 2\nx0^%d, 1\n1, x0^%d\n1, 1\n" % (e, e)
        )
        start = time.perf_counter()
        code = main(["conditions", "--matrix", str(path)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert elapsed < 1.0
        assert captured.out == ""
        assert str(EXP_BOUND) in captured.err

    def test_huge_level_is_fast(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(MATRIX_A0)
        start = time.perf_counter()
        code, out = run(capsys, ["conditions", "--matrix", str(path), "--m", "1000000000"])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert len(json.loads(out)["G"]["table"]) == 2


class TestSweep:
    FAMILY_FILE = "ring x y params a over 32003\na*x^2\ny^2\nx*y\n"
    MAP_FILE = "ring x0 x1 over 7\nmap: x0^2, x1^2\n"

    def test_csv_header_and_rows(self, capsys):
        code, out = run(
            capsys,
            [
                "sweep",
                "--family",
                "dejonquieres",
                "--m",
                "2",
                "--points",
                "0,1",
                "--format",
                "csv",
            ],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "point,deg_map,deg_image,gr_dim,G_{r+1},status"
        assert lines[1] == "0,1,1,4,False,ok"
        assert lines[2] == "1,2,1,3,True,ok"

    def test_rational_sweep_keeps_degree_off_base_curves(self, capsys):
        # with sample coordinates in [-30, 30], trial 1 at a=12 landed on
        # (24, -24, -22), whose fiber loses a point to the base locus,
        # and the sweep reported degree 1
        code, out = run(
            capsys,
            [
                "sweep", "--family", "dejonquieres", "--m", "2", "--prime", "0",
                "--points", "0,50,12", "--seed", "41512",
            ],
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["deg_map"] for r in rows] == [1, 2, 2]

    def test_failed_internal_check_is_not_a_row(self, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("internal check failed")

        monkeypatch.setattr(families, "gr_dimension_at", broken)
        with pytest.raises(AssertionError, match="internal check failed"):
            main(["sweep", "--family", "dejonquieres", "--points", "0,1"])

    def test_malformed_member_is_an_error_row(self, capsys, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text(self.FAMILY_FILE)
        code, out = run(capsys, ["sweep", "--family", str(path), "--points", "0,1"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["status"].startswith("error: zero form")
        assert rows[1]["status"] == "ok"
        assert (rows[1]["deg_map"], rows[1]["deg_image"]) == (1, 2)

    # what fixes the field besides --prime: family.txt over F_32003,
    # --ring over F_7, or map.txt over F_7
    FIELD_INPUTS = {
        "family": ["--family", "family.txt", "--points", "1"],
        "ring": ["--map", "x0^2, x1^2", "--ring", "x0 x1 over 7"],
        "map": ["--map", "map.txt"],
    }

    def field_argv(self, tmp_path, monkeypatch, command, prime, field):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "family.txt").write_text(self.FAMILY_FILE)
        (tmp_path / "map.txt").write_text(self.MAP_FILE)
        return [command, "--prime", prime] + self.FIELD_INPUTS[field]

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "7", "family"], ["gr-dim", "0", "family"]]
        + [
            pytest.param([command, "5", field], id="%s-%s" % (command, field))
            for field in ("ring", "map")
            for command in MAP_COMMANDS
        ],
    )
    def test_prime_disagreeing_with_family_file_is_two(self, capsys, tmp_path, monkeypatch, argv):
        code = main(self.field_argv(tmp_path, monkeypatch, *argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        _, prime, field = argv
        fixed = "over 32003" if field == "family" else "over 7"
        assert "--prime %s disagrees" % prime in captured.err and fixed in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["sweep", "32003", "family"], id="sweep"),
            pytest.param(["gr-dim", "32003", "family"], id="gr-dim"),
        ]
        + [
            pytest.param([command, "7", field], id="%s-%s" % (command, field))
            for field in ("ring", "map")
            for command in MAP_COMMANDS
        ],
    )
    def test_prime_matching_family_file_runs(self, capsys, tmp_path, monkeypatch, argv):
        code, out = run(capsys, self.field_argv(tmp_path, monkeypatch, *argv))
        assert code == 0
        assert json.loads(out)["prime"] == int(argv[1])

    def test_family_file_has_its_own_kind_and_degree(self, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("ring x y z params a over 32003\na*x^3\ny^3\nx*y*z + a*z^3\n")
        fam = _load_family(build_parser().parse_args(["sweep", "--family", str(path)]))
        assert fam.spec.kind == "file"
        # the parameter a does not count towards the degree
        assert fam.degree == 3

    def test_gr_dim_rows(self, capsys):
        code, out = run(
            capsys,
            ["gr-dim", "--family", "dejonquieres", "--m", "2", "--points", "0,1"],
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["gr_dim"] for r in rows] == [4, 3]


class TestJMult:
    def test_value(self, capsys):
        code, out = run(capsys, ["jmult", "--map", "x0^2, x1^2"])
        assert code == 0
        assert json.loads(out)["j_multiplicity"] == 4

    def test_marker(self, capsys):
        code, out = run(capsys, ["jmult", "--map", "x0^2 + x1^2"])
        assert code == 0
        assert json.loads(out)["j_multiplicity"] == "ell-not-maximal"


class TestExitCodes:
    def test_parse_error_is_two(self, capsys):
        code, _ = run(capsys, ["degree", "--map", "x0^2, x1^^2"])
        assert code == 2

    def test_juxtaposed_factors_are_two(self, capsys):
        # read as a sum, "x0 x0, x1 x1" was the identity map, degree 1
        code, out = run(capsys, ["degree", "--map", "x0 x0, x1 x1"])
        assert code == 2
        assert out == ""

    def test_missing_file_is_two(self, capsys, tmp_path):
        code, _ = run(
            capsys, ["conditions", "--matrix", str(tmp_path / "nope.txt")]
        )
        assert code == 2

    def test_budget_exhaustion_is_three(self, capsys):
        code, _ = run(
            capsys,
            [
                "rees",
                "--map",
                "x0^3, x0^2*x1, x0*x1^2, x1^3",
                "--budget",
                "3",
            ],
        )
        assert code == 3

    # the Rees basis of the twisted cubic takes 106 steps, and `image`
    # takes 25 more for its fiber cone basis; `degree` reads its answers
    # off the Rees basis alone
    TWISTED_CUBIC = ["degree", "--map", "x0^3, x0^2*x1, x0*x1^2, x1^3"]

    def test_budget_covers_the_whole_command(self, capsys):
        code, out = run(capsys, self.TWISTED_CUBIC + ["--budget", "105"])
        assert code == 3
        assert out == ""
        code, out = run(capsys, self.TWISTED_CUBIC + ["--budget", "106"])
        assert code == 0
        assert json.loads(out)["deg_map"] == 1
        # the two bases of `image` draw on one budget
        image = ["image"] + self.TWISTED_CUBIC[1:]
        code, out = run(capsys, image + ["--budget", "130"])
        assert code == 3
        assert out == ""
        code, out = run(capsys, image + ["--budget", "131"])
        assert code == 0
        assert json.loads(out)["deg_image"] == 3

    def test_pair_updates_are_charged(self, capsys):
        # I^40 has 861 monomial generators that reduce in zero steps, so
        # only the charge for the divisibility tests that minimalize them
        # stops this early
        start = time.perf_counter()
        code, out = run(
            capsys,
            ["sfib-hf", "--map", "x0^2,x1^2,x2^2", "--points", "40", "--budget", "10"],
        )
        assert code == 3
        assert out == ""
        assert time.perf_counter() - start < 1.0

    def test_power_products_are_charged(self, capsys):
        # I^20 of six quadrics takes 53 130 products of 20 forms before
        # any basis is asked for
        start = time.perf_counter()
        code, out = run(
            capsys,
            [
                "sfib-hf",
                "--map",
                "x0^2,x1^2,x2^2,x0*x1,x0*x2,x1*x2",
                "--points",
                "20",
                "--budget",
                "10",
            ],
        )
        assert code == 3
        assert out == ""
        assert time.perf_counter() - start < 1.0

    def test_budget_message_counts_steps(self, capsys, monkeypatch):
        # the power loop runs out before any reduction, so the message
        # names steps, not reduction steps
        reductions = []
        reduce = gb_mod._reduce
        monkeypatch.setattr(
            gb_mod, "_reduce", lambda *a, **k: reductions.append(1) or reduce(*a, **k)
        )
        six_quadrics = "x0^2,x1^2,x2^2,x0*x1,x0*x2,x1*x2"
        code = main(["sfib-hf", "--map", six_quadrics, "--points", "20", "--budget", "10"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == "" and not reductions
        assert captured.err == "error: computation exceeded its budget of 10 steps\n"

    @pytest.mark.parametrize("command", MAP_COMMANDS)
    @pytest.mark.parametrize("ring", ["a b c over 0", "x0 x1 over 7"])
    def test_ring_with_map_file_is_two(self, capsys, tmp_path, command, ring):
        # the file's header names the ring, so --ring has nothing to say,
        # even when it agrees with the header
        path = tmp_path / "map.txt"
        path.write_text("ring x0 x1 over 7\nmap: x0^2, x1^2\n")
        code, out = run(capsys, [command, "--map", str(path), "--ring", ring])
        assert code == 2
        assert out == ""
        code, out = run(capsys, [command, "--map", str(path)])
        assert code == 0

    def test_minor_products_are_charged(self, capsys, tmp_path):
        # the 9-minors of a linear 10 x 9 matrix expand every smaller
        # minor of its chain before Fitt_1 gets a basis
        rng = random.Random(10)
        names = ["x%d" % i for i in range(4)]
        rows = [
            ", ".join(
                " + ".join("%d*%s" % (rng.randrange(1, 32003), x) for x in names)
                for _ in range(9)
            )
            for _ in range(10)
        ]
        path = tmp_path / "m.txt"
        path.write_text("ring %s over 32003\nmatrix 10 x 9\n%s\n" % (" ".join(names), "\n".join(rows)))
        start = time.perf_counter()
        code, out = run(capsys, ["conditions", "--matrix", str(path), "--budget", "1"])
        assert code == 3
        assert out == ""
        assert time.perf_counter() - start < 1.0

    def test_successive_commands_get_fresh_budgets(self, capsys):
        for _ in range(3):
            code, _ = run(capsys, self.TWISTED_CUBIC + ["--budget", "135"])
            assert code == 0

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("REESDEG_BUDGET", "3")
        code, _ = run(capsys, ["rees", "--map", "x0^3, x0^2*x1, x0*x1^2, x1^3"])
        assert code == 3

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_is_two(self, capsys, trials):
        # --trials is retired, so any value is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["degree", "--map", "x0^2, x1^2", "--trials", trials])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_is_two(self, capsys, budget):
        code, out = run(capsys, ["degree", "--map", "x0^2, x1^2", "--budget", budget])
        assert code == 2
        assert out == ""

    def test_negative_budget_env_var_is_two(self, capsys, monkeypatch):
        monkeypatch.setenv("REESDEG_BUDGET", "-5")
        code, _ = run(capsys, ["rees", "--map", "x0^2, x1^2"])
        assert code == 2

    def test_malformed_budget_env_var_is_two(self, capsys, monkeypatch):
        monkeypatch.setenv("REESDEG_BUDGET", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["rees", "--map", "x0^2, x1^2"])
        assert exc.value.code == 2

    def test_exponent_past_packed_bound_is_two(self, capsys):
        # fails at the first basis computation instead of exhausting memory
        e = EXP_BOUND + 1
        start = time.perf_counter()
        code = main(["degree", "--map", "x0^%d,x1^%d" % (e, e), "--budget", "10"])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        assert elapsed < 1.0
        assert str(EXP_BOUND) in err


class TestLargeExponents:
    """Hilbert numerators and graph gradings of maps of huge degree."""

    @pytest.mark.parametrize("command", ["rees", "image", "degree"])
    def test_degree_5000_answers_at_once(self, capsys, command):
        start = time.perf_counter()
        code, out = run(capsys, [command, "--map", "x0^5000,x1^5000"])
        assert code == 0
        assert time.perf_counter() - start < 2.0
        if command == "degree":
            payload = json.loads(out)
            assert (payload["deg_map"], payload["deg_image"]) == (5000, 1)

    def test_rees_of_degree_two_to_the_twenty(self, capsys):
        code, out = run(capsys, ["rees", "--map", "x0^1048576,x1^1048576", "--format", "text"])
        assert code == 0
        assert "x1^1048576*y0 + 32002*x0^1048576*y1" in out

    def test_weighted_degree_past_the_bound_falls_back(self, capsys):
        # y2^8 - y0*y1^7 has total degree 8 but weighted degree 8(d+1),
        # past EXP_BOUND, in the grading of the graph ideal
        d = 1 << 20
        forms = "x0^%d,x1^%d,x0^%d*x1^%d" % (d, d, d // 8, 7 * d // 8)
        code, out = run(capsys, ["rees", "--map", forms, "--format", "text"])
        assert code == 0
        assert "y0*y1^7 + 32002*y2^8" in out


class TestOutput:
    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "result.json"
        code, out = run(
            capsys, ["degree", "--map", "x0, x1", "--out", str(dest)]
        )
        assert code == 0
        payload = json.loads(dest.read_text())
        assert payload["deg_map"] == 1

    def test_console_script_wired(self):
        proc = subprocess.run(
            [sys.executable, "-m", "reesdeg.cli", "degree", "--map", "x0, x1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["deg_map"] == 1

    def test_degree_output_ignores_seed(self, capsys):
        argv = ["degree", "--map", "x0^3, x0*x1^2 + x1^3"]
        _, a = run(capsys, argv + ["--seed", "1"])
        _, b = run(capsys, argv + ["--seed", "2"])
        a, b = json.loads(a), json.loads(b)
        assert (a.pop("seed"), b.pop("seed")) == (1, 2)
        assert a == b
        assert a["trials"] == []

    def test_seed_changes_trials_not_value(self, capsys):
        _, a = run(capsys, ["degree", "--map", "x0^2, x1^2", "--seed", "1"])
        _, b = run(capsys, ["degree", "--map", "x0^2, x1^2", "--seed", "2"])
        assert json.loads(a)["deg_map"] == json.loads(b)["deg_map"] == 2


# the flags each subcommand reads besides --seed, --budget, --format, --out
EXPECTED_FLAGS = {
    "degree": {"--map", "--ring", "--prime"},
    "image": {"--map", "--ring", "--prime"},
    "rees": {"--map", "--ring", "--prime"},
    "fiber-cone": {"--map", "--ring", "--prime"},
    "sfib-hf": {"--map", "--ring", "--prime", "--points"},
    "conditions": {"--matrix", "--m"},
    "sweep": {"--family", "--m", "--points", "--prime"},
    "jmult": {"--map", "--ring", "--prime"},
    "gr-dim": {"--map", "--ring", "--prime", "--family", "--m", "--points"},
}


def subparsers():
    parser = build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def flag_sets():
    return {
        name: {s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}
        for name, p in subparsers().items()
    }


def exit_code(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


class TestFlagTable:
    def test_each_subcommand_has_only_its_flags(self):
        common = {"--seed", "--budget", "--format", "--out"}
        got = flag_sets()
        assert got == {name: flags | common for name, flags in EXPECTED_FLAGS.items()}
        assert got == {
            name: set(flags + COMMON_FLAGS) for name, flags in SUBCOMMAND_FLAGS.items()
        }
        assert sum(len(flags) for flags in got.values()) == 67

    @pytest.mark.parametrize(
        "argv",
        [
            ["degree", "--map", "x0^2, x1^2", "--trials", "3"],
            ["rees", "--map", "x0^2, x1^2", "--points", "1"],
            ["conditions", "--matrix", "m.txt", "--map", "x0"],
            ["image", "--map", "x0^2, x1^2", "--format", "csv"],
            ["sweep", "--family", "dejonquieres", "--mu", "1,1"],
            ["gr-dim", "--points", "0,1"],
            ["gr-dim", "--map", "x0, x1", "--family", "dejonquieres"],
            ["sweep", "--family", "hilbert_burch"],
            ["degree"],
            ["conditions"],
            ["sweep", "--points", "0,1"],
        ],
    )
    def test_flag_it_does_not_read_is_two(self, capsys, argv):
        code, out = exit_code(capsys, argv)
        assert code == 2
        assert out == ""

    def test_parser_built_once_per_budget_default(self):
        assert build_parser() is build_parser()
        assert build_parser("7") is not build_parser()
        argv = ["rees", "--map", "x0^2, x1^2"]
        assert build_parser("7").parse_args(argv).budget == 7
        assert build_parser().parse_args(argv).budget == DEFAULT_BUDGET

    def test_m_defaults(self):
        # the parser gives --m no default; de Jonquieres, the one family
        # that reads m, takes 2 when --m is not given
        parser = build_parser()
        for command in ("sweep", "gr-dim"):
            args = parser.parse_args([command, "--family", "dejonquieres"])
            assert args.m is None
            assert _load_family(args).spec.m == 2
            args = parser.parse_args([command, "--family", "dejonquieres", "--m", "3"])
            assert _load_family(args).spec.m == 3
        assert parser.parse_args(["conditions", "--matrix", "m.txt"]).m is None

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["gr-dim", "--map", "x0^2,x1^2", "--points", "5,6"], "--points"),
            (["gr-dim", "--map", "x0^2,x1^2", "--m", "7"], "--m"),
            (["gr-dim", "--family", "dejonquieres", "--ring", "x y over 7"], "--ring"),
            (["sweep", "--family", "family.txt", "--m", "5"], "--m"),
            (["gr-dim", "--family", "family.txt", "--m", "5"], "--m"),
        ],
    )
    def test_flag_its_input_does_not_read_is_two(
        self, capsys, tmp_path, monkeypatch, argv, flag
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "family.txt").write_text(TestSweep.FAMILY_FILE)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: %s does not apply" % flag)

    def test_gr_dim_takes_a_map(self, capsys):
        code, out = run(capsys, ["gr-dim", "--map", "x0^2, x0*x1, x1^2"])
        assert code == 0
        assert json.loads(out)["rows"] == [{"point": [], "gr_dim": 2}]


def load_workloads():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkArgv:
    def test_parser_accepts_every_benchmark_op(self, tmp_path):
        """The benchmark's operations keep parsing, so no flag they use is
        dropped from the subcommand that gets it."""
        wl = load_workloads()
        parser = build_parser()
        seen = 0
        for name in wl.WORKLOADS:
            workdir = tmp_path / name
            workdir.mkdir()
            workload = wl.Workload(name, 1, str(workdir), 1)
            for op in workload.warm_up_ops() + workload.round_ops(0):
                assert parser.parse_args(list(op.argv)).command == op.argv[0]
                seen += 1
        assert seen > 0
