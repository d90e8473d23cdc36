import argparse
import importlib.util
import json
import os
import random
import subprocess
import sys
import time

import pytest

from conftest import count_buchberger_runs, rees_route
import reesdeg.blowup as blowup
import reesdeg.cli as cli
import reesdeg.families as families
import reesdeg.groebner as gb_mod
import reesdeg.ratmap as ratmap
import reesdeg.ring as ring
from reesdeg.cli import COMMON_FLAGS, SUBCOMMAND_FLAGS, _load_family, build_parser, main
from reesdeg.conditions import check_Gm
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

    def test_certified_degree_comes_through_degree_map(self, capsys, monkeypatch):
        # perfbench/selftest.py injects a wrong degree by wrapping the
        # module attribute degree_map on a Hilbert-Burch (1,1) map, which
        # the Jacobian dual certifies: the wrapped value must reach the
        # output, once
        forms = families.make_family(
            families.FamilySpec("hilbert_burch", r=2, mu=(1, 1), seed=4)
        ).forms
        argv = ["degree", "--map", ", ".join(ring.format_poly(g) for g in forms)]
        runs = count_buchberger_runs(monkeypatch)
        _, right = run(capsys, argv)
        assert runs == [] and json.loads(right)["deg_map"] == 1
        real = ratmap.degree_map
        monkeypatch.setattr(
            ratmap, "degree_map", lambda *a, **k: (lambda v, log: (v + 1, log))(*real(*a, **k))
        )
        _, wrong = run(capsys, argv)
        payload = json.loads(wrong)
        assert (payload["deg_map"], payload["sfib_multiplicity"]) == (2, 2)
        assert wrong != right


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


class TestSaturatedFiber:
    """sfib-hf reads each s = r rule once per command: a map the Jacobian
    dual rule certifies takes C(n+r, r) at every point, and one the
    Hilbert-Burch rule certifies reads its values off its presentation
    matrix, both from no basis; bad input fails as it always has,
    certified or not."""

    MAPS = {
        "cremona": "x1*x2, x0*x2, x0*x1",
        "hb12": "x0^2*x1 - 1/2*x0*x1*x2 - 3*x1^2*x2 + x2^3, -x0^3 + 3*x0*x1*x2 + x1^2*x2,"
        " 1/2*x0^2*x1 - x1^3 - x0*x2^2",
        "diag3": "x0^2, x1^2, x2^2",
        "sq": "x0^2, x1^2",
    }

    def spy(self, monkeypatch):
        """Log the verdicts of both rules, which the map context reads:
        the dual rule's, and whether the Hilbert-Burch rule found a
        matrix."""
        calls = []
        for name in ("jacobian_dual_birational", "hilbert_burch_presentation"):
            inner = getattr(blowup, name)

            def rule(*args, name=name, inner=inner):
                out = inner(*args)
                calls.append((name, bool(out)))
                return out

            monkeypatch.setattr(ratmap, name, rule)
        return calls

    # the dual rule's verdict; the Hilbert-Burch rule, read after it,
    # certifies hb12 alone, and diag3, which neither rule certifies, makes
    # one saturation per power; so does sq, a map of P^1, which reads no
    # Hilbert-Burch fact though `degree` finds one
    @pytest.mark.parametrize(
        "name, certified, values",
        [
            ("cremona", True, [3, 6, 10]),
            ("hb12", False, [3, 7, 13]),
            ("diag3", False, [6, 15, 28]),
            ("sq", False, [3, 5, 7]),
        ],
    )
    def test_rule_is_read_once(self, capsys, monkeypatch, name, certified, values):
        calls = self.spy(monkeypatch)
        runs = count_buchberger_runs(monkeypatch)
        code, out = run(capsys, ["sfib-hf", "--map", self.MAPS[name], "--points", "1,2,3"])
        assert code == 0
        assert [v["value"] for v in json.loads(out)["values"]] == values
        reads = not certified and name != "sq"
        hilbert_burch = [("hilbert_burch_presentation", name == "hb12")] if reads else []
        assert calls == [("jacobian_dual_birational", certified)] + hilbert_burch
        assert len(runs) == (3 if name in ("diag3", "sq") else 0)

    def error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        return captured.err

    @pytest.mark.parametrize("name", list(MAPS))
    @pytest.mark.parametrize("points", ["-1", "1,-1", "-1,2"])
    def test_negative_power_is_two(self, capsys, monkeypatch, name, points):
        calls = self.spy(monkeypatch)
        argv = ["sfib-hf", "--map", self.MAPS[name], "--points=" + points]
        assert self.error(capsys, argv) == "error: power must be nonnegative\n"
        assert calls == []

    @pytest.mark.parametrize("name", list(MAPS))
    def test_parametric_map_is_two(self, capsys, monkeypatch, name):
        calls = self.spy(monkeypatch)
        ring = "x0 x1 x2 params a over 32003"
        forms = "a*" + self.MAPS[name]
        err = self.error(capsys, ["sfib-hf", "--map", forms, "--ring", ring, "--points", "1"])
        assert err == "error: rational maps take parameter-free forms\n"
        assert calls == []

    @pytest.mark.parametrize("name, degree", [("cremona", 2), ("hb12", 3)])
    def test_mixed_degree_map_is_two(self, capsys, monkeypatch, name, degree):
        calls = self.spy(monkeypatch)
        forms = self.MAPS[name] + ", x0^4"
        err = self.error(capsys, ["sfib-hf", "--map", forms, "--points", "1"])
        assert err == "error: forms have mixed degrees %d and 4\n" % degree
        assert calls == []


# the functions behind the facts a map context holds
FACTS = (
    "rees_ideal",
    "jacobian_independent",
    "linear_syzygies",
    "jacobian_dual_birational",
    "hilbert_burch_presentation",
)


def spy_facts(monkeypatch):
    """Log (fact, forms) for each fact computed, in every reesdeg module
    that binds the function behind it."""
    log = []
    for name in FACTS:
        inner = getattr(blowup, name)

        def spy(forms, *args, name=name, inner=inner, **kwargs):
            log.append((name, tuple(str(g) for g in forms)))
            return inner(forms, *args, **kwargs)

        for mod in [m for key, m in sys.modules.items() if key.startswith("reesdeg")]:
            if getattr(mod, name, None) is inner:
                monkeypatch.setattr(mod, name, spy)
    return log


class TestMapContext:
    """A command computes each fact of its map at most once, and checks
    its input before any fact."""

    MAPS = {
        **TestSaturatedFiber.MAPS,
        "conic": "x0^2, x0*x1, x1^2",
        "squares": "x0^2, x1^2",
        "quad4": "x0*x1, x2*x3, x0*x2, x1*x3",
    }
    COMMANDS = {
        "degree": [],
        "jmult": [],
        "image": [],
        "fiber-cone": [],
        "rees": [],
        "sfib-hf": ["--points", "1,2,3"],
        "gr-dim": [],
    }

    @pytest.mark.parametrize("name", list(MAPS))
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_each_fact_once_per_map(self, capsys, monkeypatch, command, name):
        log = spy_facts(monkeypatch)
        ring = "x0 x1 x2 x3 over 0" if name == "quad4" else "x0 x1 x2 over 0"
        argv = [command, "--map", self.MAPS[name], "--ring", ring] + self.COMMANDS[command]
        code, _ = run(capsys, argv)
        assert code == 0
        assert len(log) == len(set(log)), log

    def test_sweep_reads_rees_once_per_uncertified_point(self, capsys, monkeypatch):
        # a = 0 is the one point of the three that the family does not
        # certify: its member alone reads its own Rees ideal and rules
        log = spy_facts(monkeypatch)
        code, _ = run(capsys, ["sweep", "--family", "dejonquieres", "--points", "0,1,2"])
        assert code == 0
        assert len(log) == len(set(log))
        assert [fact for fact, _ in log].count("rees_ideal") == 1
        assert len({forms for _, forms in log}) == 1

    BAD = {
        "parametric": (["--ring", "x0 x1 x2 params a over 32003"], "a*x1*x2, x0*x2, x0*x1",
                       "rational maps take parameter-free forms"),
        "mixed": ([], "x1*x2, x0*x2, x0*x1, x0^4", "forms have mixed degrees 2 and 4"),
        "zero": ([], "x1*x2, 0, x0*x1", "zero form in the generating set"),
    }

    @pytest.mark.parametrize("case", list(BAD))
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_bad_map_fails_before_any_fact(self, capsys, monkeypatch, command, case):
        log = spy_facts(monkeypatch)
        ring, forms, message = self.BAD[case]
        code = main([command, "--map", forms] + ring + self.COMMANDS[command])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", "error: %s\n" % message)
        assert log == []


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

        # the gr dimension of the uncertified point 0 is read off a basis
        monkeypatch.setattr(families, "dim_degree", broken)
        with pytest.raises(AssertionError, match="internal check failed"):
            main(["sweep", "--family", "dejonquieres", "--points", "0,1"])

    def test_malformed_member_is_an_error_row(self, capsys, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text(self.FAMILY_FILE)
        code, out = run(capsys, ["sweep", "--family", str(path), "--points", "0,1"])
        assert code == 0
        rows = json.loads(out)["rows"]
        # the message `gr-dim --family` gives at that point
        assert rows[0]["status"] == "error: parameter point kills generator 0"
        assert rows[1]["status"] == "ok"
        assert (rows[1]["deg_map"], rows[1]["deg_image"]) == (1, 2)

    @pytest.mark.parametrize("command", ["sweep", "gr-dim"])
    @pytest.mark.parametrize("zero", ["0", "x*y - x*y"], ids=["zero", "cancels"])
    def test_zero_form_in_family_file_is_two(self, capsys, tmp_path, command, zero):
        # as through --map: a family with the zero form dropped is another
        # family, whose rows would shift every "kills generator i"
        path = tmp_path / "family.txt"
        path.write_text("ring x y params a over 32003\nx^2\n%s\na*y^2 + x*y\n" % zero)
        code = main([command, "--family", str(path), "--points", "0,1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: zero form in the generating set\n"

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


class TestPoints:
    """--points names at least one point of integer coordinates, and a
    parameter point over F_p is reduced mod p before it is used."""

    COMMANDS = {
        "sfib-hf": ["sfib-hf", "--map", "x0^2, x1^2"],
        "sweep": ["sweep", "--family", "dejonquieres"],
        "gr-dim": ["gr-dim", "--family", "dejonquieres"],
    }

    def error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        return captured.err

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("text", ["", ",", " , "], ids=["empty", "comma", "spaces"])
    def test_no_point_is_two(self, capsys, command, text):
        err = self.error(capsys, self.COMMANDS[command] + ["--points", text])
        assert err == "error: --points %r names no point\n" % text

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_non_integer_coordinate_is_two(self, capsys, command):
        err = self.error(capsys, self.COMMANDS[command] + ["--points", "1/2", "--prime", "0"])
        assert err == "error: --points coordinates must be integers, got '1/2'\n"

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_value_with_a_leading_minus(self, capsys, command):
        # argparse reads "-1,2" after a flag as a flag of its own; the
        # command line glues it to --points, as the = spelling does
        argv = self.COMMANDS[command]
        glued = main(argv + ["--points=-1,2"]), capsys.readouterr()
        spaced = main(argv + ["--points", "-1,2"]), capsys.readouterr()
        assert spaced == glued
        # a negative power is an error of sfib-hf's own, not a usage line
        assert glued[0] == (2 if command == "sfib-hf" else 0)
        assert "usage" not in glued[1].err

    def test_sweep_reduces_points_mod_p(self, capsys):
        argv = ["sweep", "--family", "dejonquieres", "--format", "csv"]
        code, out = run(capsys, argv + ["--points", "32003,32004,-32002"])
        assert code == 0
        # 32003 is a = 0, where the degree drops, and the echo says so
        assert out.splitlines()[1:] == ["0,1,1,4,False,ok", "1,2,1,3,True,ok", "1,2,1,3,True,ok"]
        # over Q no point is reduced
        code, out = run(capsys, argv + ["--points", "32003", "--prime", "0"])
        assert (code, out.splitlines()[1]) == (0, "32003,2,1,3,True,ok")

    def test_gr_dim_echoes_the_reduced_point(self, capsys):
        code, out = run(
            capsys, ["gr-dim", "--family", "dejonquieres", "--points", "99999999999999999999,-1"]
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows == [
            {"point": [99999999999999999999 % 32003], "gr_dim": 3},
            {"point": [32002], "gr_dim": 3},
        ]

    def test_sfib_hf_powers_are_not_reduced(self, capsys):
        code, out = run(capsys, self.COMMANDS["sfib-hf"] + ["--points", "7", "--prime", "7"])
        assert code == 0
        assert json.loads(out)["values"] == [{"n": 7, "value": 15}]


class TestAsciiNumerals:
    """Numerals are ASCII digits: int() and `\\d` would also read "3_2003"
    and the digits of other scripts, and each of these exited 0."""

    INPUTS = {
        "underscore in the characteristic": ["--map", "x^2, y^2", "--ring", "x y over 3_2003"],
        "arabic-indic characteristic": ["--map", "x^2, y^2", "--ring", "x y over \u0667"],
        "arabic-indic coefficient": ["--map", "\u0663*x^2, y^2", "--ring", "x y over 7"],
        "arabic-indic exponent": ["--map", "x^\u0662, y^2", "--ring", "x y over 7"],
        "arabic-indic block size": ["--map", "x^2, y^2", "--ring", "x y over 7 order elim:\u0661"],
    }
    POINTS = ["1_0", "\u0663", "1:\u0662"]
    FLAGS = [
        ["--prime", "3_2003"],
        ["--prime", "\u0667"],
        ["--budget", "\u0663"],
        ["--seed", "1_7"],
    ]

    def two(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        return captured.err

    @pytest.mark.parametrize("name", list(INPUTS))
    def test_map_input_is_two(self, capsys, name):
        self.two(capsys, ["degree"] + self.INPUTS[name])

    @pytest.mark.parametrize("points", POINTS)
    def test_points_are_two(self, capsys, points):
        err = self.two(capsys, ["sweep", "--family", "dejonquieres", "--points", points])
        assert "--points coordinates must be integers" in err

    @pytest.mark.parametrize("flag", FLAGS, ids=lambda f: " ".join(f))
    def test_integer_flag_is_two(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["degree", "--map", "x0^2, x1^2"] + flag)
        assert exc.value.code == 2
        assert "invalid integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["degree", "--map", "x^2, y^2", "--ring", "x y over 7 order elim:1"],
            ["sfib-hf", "--map", "x0^2, x1^2", "--points", " 1 , +2 "],
            ["sweep", "--family", "dejonquieres", "--points", "-1,2", "--prime", " 7"],
        ],
    )
    def test_ascii_numerals_parse(self, capsys, argv):
        code, _ = run(capsys, argv)
        assert code == 0


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

    # the Rees basis of the twisted cubic takes 106 steps; `degree` reads
    # its answers off it, and `image` reads its fiber cone basis off it
    TWISTED_CUBIC = ["degree", "--map", "x0^3, x0^2*x1, x0*x1^2, x1^3"]

    def test_budget_covers_the_whole_command(self, capsys):
        code, out = run(capsys, self.TWISTED_CUBIC + ["--budget", "105"])
        assert code == 3
        assert out == ""
        code, out = run(capsys, self.TWISTED_CUBIC + ["--budget", "106"])
        assert code == 0
        assert json.loads(out)["deg_map"] == 1
        image = ["image"] + self.TWISTED_CUBIC[1:]
        code, out = run(capsys, image + ["--budget", "105"])
        assert code == 3
        assert out == ""
        code, out = run(capsys, image + ["--budget", "106"])
        assert code == 0
        assert json.loads(out)["deg_image"] == 3
        # the saturations of I and of I^2 take 6 and 31 steps, and their
        # two bases draw on one budget
        sfib = ["sfib-hf"] + self.TWISTED_CUBIC[1:] + ["--points", "1,2"]
        code, out = run(capsys, sfib + ["--budget", "36"])
        assert code == 3
        assert out == ""
        code, out = run(capsys, sfib + ["--budget", "37"])
        assert code == 0
        assert [v["value"] for v in json.loads(out)["values"]] == [4, 7]

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

    def test_hilbert_burch_kernel_is_charged(self, capsys):
        # the Hilbert-Burch (2, 3) map is certified by the Koszul exit in
        # 1 727 steps, builds its matrix in 1 361 more and reads n = 4 off
        # a kernel of 36 columns in 155 more; at n = 60 its map
        # on top cohomology has 10 620 columns, and its 18 product terms
        # per monomial of k[y]_58, 31 860 steps, are charged before any is
        # formed; the budget sits far from both counts
        fam = families.make_family(families.FamilySpec("hilbert_burch", r=2, mu=(2, 3), seed=5))
        forms = ", ".join(ring.format_poly(g) for g in fam.forms)
        argv = ["sfib-hf", "--map", forms, "--prime", "32003", "--budget", "10000"]
        code, out = run(capsys, argv + ["--points", "4"])
        assert code == 0
        assert [v["value"] for v in json.loads(out)["values"]] == [41]
        start = time.perf_counter()
        code = main(argv + ["--points", "60"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == "error: computation exceeded its budget of 10000 steps\n"
        assert time.perf_counter() - start < 1.0

    def test_hilbert_burch_map_fits_the_rees_budget(self, capsys):
        # ROADMAP item 18's instance: the first G_3 draw of the (2, 3)
        # shape from random.Random(7), drawn as perfbench's workloads draw
        # it.  The Rees route needs 678 steps and the full search 2 871, so
        # a budget of 2 000 once failed a map that the Rees route fits;
        # the Koszul exit certifies it in 1 657
        rng = random.Random(7)
        while True:
            spec = families.FamilySpec(
                "hilbert_burch", r=2, mu=(2, 3), seed=rng.randrange(1 << 30), prime=32003
            )
            fam = families.make_family(spec)
            if check_Gm(fam.matrix, 3).verdict:
                break
        forms = ", ".join(ring.format_poly(g) for g in fam.forms)
        argv = ["degree", "--map", forms, "--prime", "32003", "--budget"]
        code, out = run(capsys, argv + ["2000"])
        assert code == 0 and json.loads(out)["deg_map"] == 6
        code, out = run(capsys, argv + ["1657"])
        assert code == 0 and json.loads(out)["deg_map"] == 6
        code, out = run(capsys, argv + ["1656"])
        assert (code, out) == (3, "")

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

    def test_pfaffian_products_are_charged(self, capsys, tmp_path):
        # a linear alternating 9 x 9 matrix takes the sub-Pfaffian chain,
        # whose 8-Pfaffians expand every smaller one before a basis
        rng = random.Random(9)
        names = ["x%d" % i for i in range(4)]
        entries = [["0"] * 9 for _ in range(9)]
        for i in range(9):
            for j in range(i + 1, 9):
                coeffs = [rng.randrange(1, 32003) for _ in names]
                entries[i][j] = " + ".join("%d*%s" % (c, x) for c, x in zip(coeffs, names))
                entries[j][i] = " + ".join("%d*%s" % (32003 - c, x) for c, x in zip(coeffs, names))
        rows = "\n".join(", ".join(row) for row in entries)
        path = tmp_path / "a.txt"
        path.write_text("ring %s over 32003\nmatrix 9 x 9\n%s\n" % (" ".join(names), rows))
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

    def test_gr_dim_of_a_map_runs_no_basis(self, capsys, monkeypatch):
        # dim gr_I(S) = dim S: the 5x5 Pfaffian map answers 5 without a
        # Buchberger run, so a budget of one step suffices
        fam = families.make_family(families.FamilySpec("pfaffian", r=4, D=1))
        pfaffians = ", ".join(ring.format_poly(g) for g in fam.forms)
        runs = count_buchberger_runs(monkeypatch)
        code, out = run(capsys, ["gr-dim", "--map", pfaffians, "--budget", "1"])
        assert (code, runs) == (0, [])
        assert json.loads(out)["rows"] == [{"point": [], "gr_dim": 5}]
        # the forms are still checked
        code = main(["gr-dim", "--map", "x0^2, x1^3", "--budget", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: forms have mixed degrees 2 and 3\n"

    @pytest.mark.parametrize("command", ["fiber-cone", "image"])
    def test_fiber_cone_is_read_off_the_rees_basis(self, capsys, monkeypatch, command):
        # four dependent quadrics of P^3, which the Jacobian does not
        # certify, make the t-run of their Rees ideal alone: no second
        # Buchberger run
        runs = count_buchberger_runs(monkeypatch)
        code, out = run(capsys, [command, "--map", "x0*x1, x2*x3, x0*x2, x1*x3"])
        assert (code, len(runs)) == (0, 1)
        # the image is the quadric surface y0*y1 = y2*y3
        assert json.loads(out)["generators"] == ["y0*y1 + 32002*y2*y3"]

    @pytest.mark.parametrize("command", ["fiber-cone", "image"])
    @pytest.mark.parametrize("prime", [32003, 0], ids=["F_32003", "QQ"])
    def test_dominant_map_makes_no_run(self, capsys, monkeypatch, command, prime):
        # the Jacobian of the 5x5 Pfaffian map has full rank, so its
        # image is P^4 with no Buchberger run; the twisted cubic's four
        # forms in two variables take the Rees route, one t-run
        spec = families.FamilySpec("pfaffian", r=4, D=1, prime=prime)
        pfaffians = ", ".join(ring.format_poly(g) for g in families.make_family(spec).forms)
        runs = count_buchberger_runs(monkeypatch)
        code, out = run(capsys, [command, "--map", pfaffians, "--prime", str(prime)])
        assert (code, runs) == (0, [])
        payload = json.loads(out)
        assert payload["generators"] == []
        assert payload["ring"] == "ring y0 y1 y2 y3 y4 over %d order grevlex" % prime
        if command == "image":
            assert (payload["dim_image"], payload["deg_image"]) == (4, 1)
        cubic = "x0^3, x0^2*x1, x0*x1^2, x1^3"
        code, out = run(capsys, [command, "--map", cubic, "--prime", str(prime)])
        assert (code, len(runs)) == (0, 1)
        assert len(json.loads(out)["generators"]) == 3

    @pytest.mark.parametrize("command", ["fiber-cone", "image", "degree"])
    @pytest.mark.parametrize(
        "forms, message",
        [
            ("x0, x1^2", "forms have mixed degrees 1 and 2"),
            ("x0^2, 0, x1^2", "zero form in the generating set"),
            ("1, 2", "forms must have positive degree"),
        ],
        ids=["mixed", "zero", "constants"],
    )
    def test_bad_forms_fail_before_the_jacobian(self, capsys, command, forms, message):
        # x0, x1^2 has a full-rank Jacobian, and still fails
        code = main([command, "--map", forms, "--ring", "x0 x1 x2 over 32003"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: %s\n" % message

    @pytest.mark.parametrize(
        "command, forms, steps",
        [
            ("fiber-cone", "x0^2, x1^2", 2),
            ("image", "x0^2, x1^2", 2),
            ("degree", "x0^2, x1^2", 2),
            ("degree", "x1*x2, x0*x2, x0*x1", 14),
        ],
        ids=["fiber-cone", "image", "degree", "degree-cremona"],
    )
    def test_budget_bounds_the_jacobian(self, capsys, monkeypatch, command, forms, steps):
        # x0^2, x1^2 in P^2: two terms evaluated certify the forms, whose
        # gradient rows (4*x0, 0, 0), (0, 6*x1, 0) at the first point are
        # already echelon.  The Cremona map: nine product terms, an
        # echelon form of no row operation, three terms evaluated and two
        # steps of ranking psi.  One step fewer fails.
        runs = count_buchberger_runs(monkeypatch)
        argv = [command, "--map", forms, "--ring", "x0 x1 x2 over 32003"]
        code = main(argv + ["--budget", str(steps - 1)])
        captured = capsys.readouterr()
        assert (code, captured.out, runs) == (3, "", [])
        assert captured.err == "error: computation exceeded its budget of %d steps\n" % (steps - 1)
        code, out = run(capsys, argv + ["--budget", str(steps)])
        assert (code, runs) == (0, [])

    @pytest.mark.parametrize("command", MAP_COMMANDS)
    def test_map_with_a_leading_minus(self, capsys, command):
        # a form may start with a minus sign, not only a number
        glued = main([command, "--map=-x0^2,x1^2"]), capsys.readouterr()
        spaced = main([command, "--map", "-x0^2,x1^2"]), capsys.readouterr()
        assert spaced == glued and glued[0] == 0

    @pytest.mark.parametrize("flag", ["--ring", "--ring=x0 x1", "-h"])
    def test_a_flag_is_never_a_value(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["degree", "--map", flag, "x0 x1"])
        assert exc.value.code == 2
        assert "argument --map: expected one argument" in capsys.readouterr().err


class TestExactRankOverQ:
    """Over Q both Jacobian rules rank on integers, so a coefficient that
    is 0 modulo some large prime changes no verdict."""

    P = 2147483629  # a prime just below 2^31
    CREMONA = ["x1*x2, %d*x0*x2, x0*x1" % P, "%d*x1*x2 + x0*x2, x0*x2, x0*x1" % P]
    RING = "x0 x1 x2 over 0"

    def test_the_rules_certify(self):
        ctx = cli._ring_from_text(self.RING)
        squares = [ring.parse_poly(t, ctx) for t in ("x0^2", "%d*x1^2" % self.P)]
        assert blowup.jacobian_independent(squares) is True
        for text in self.CREMONA:
            forms = [ring.parse_poly(t, ctx) for t in text.split(",")]
            assert ratmap.rational_map(forms).birational is True, text

    @pytest.mark.parametrize("forms", CREMONA, ids=["scaled", "sum"])
    def test_cremona_degree_makes_no_run(self, capsys, monkeypatch, forms):
        runs = count_buchberger_runs(monkeypatch)
        code, out = run(capsys, ["degree", "--map", forms, "--ring", self.RING])
        assert (code, runs, json.loads(out)["deg_map"]) == (0, [], 1)

    @pytest.mark.parametrize("command", ["degree", "fiber-cone"])
    @pytest.mark.parametrize(
        "forms", ["x0^2, %d*x1^2" % P] + CREMONA, ids=["squares", "scaled", "sum"]
    )
    def test_bytes_are_those_of_the_rees_route(self, capsys, monkeypatch, command, forms):
        argv = [command, "--map", forms, "--ring", self.RING]
        certified = run(capsys, argv)
        # the same command on a context that holds its Rees ideal first,
        # so that no certificate stands in for it
        load = cli._load_map
        monkeypatch.setattr(cli, "_load_map", lambda args: rees_route(load(args).forms))
        assert run(capsys, argv) == certified


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
        # the direct dispatch gives the namespace the full parser gives
        for name in wl.WORKLOADS:
            workload = wl.Workload(name, 1, str(tmp_path / name), 1)
            for op in workload.round_ops(0):
                argv = cli._glue_negative_values(list(op.argv))
                assert vars(cli._parse_args(argv)) == vars(parser.parse_args(argv))


# each subcommand's input, which it requires
INPUTS = {name: ["--map", "x0^2, x1^2"] for name in SUBCOMMAND_FLAGS}
INPUTS.update(conditions=["--matrix", "m.txt"], sweep=["--family", "dejonquieres"])


def dispatch_cases(name):
    """Command lines of subcommand `name` that each exercise one branch of
    argument parsing: an error, an abbreviation, a glued value or help."""
    given = [name] + INPUTS[name]
    return [
        given + ["--trials", "3"],
        given + ["stray"],
        given + INPUTS[name],
        [name],
        [name, "--seed", "1"],
        given + ["--budget", "ten"],
        given + ["--seed", "1.5"],
        given + ["--format", "yaml"],
        [name, "--ma", "x0^2, x1^2"],
        given + ["--points", "-1,2"],
        given + ["--points=-1,2", "--budget", "-3"],
        [name, "-h"],
        given + ["-h"],
    ]


class TestDispatchParity:
    """`main` parses a command line that starts with a subcommand with
    that subparser alone; exit code, output and errors stay those of the
    full parser."""

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize(
        "argv",
        [argv for name in SUBCOMMAND_FLAGS for argv in dispatch_cases(name)]
        + [[], ["blowup", "--map", "x0"], ["--seed", "3", "degree", "--map", "x0^2, x1^2"],
           ["-h"], ["degree", "--", "--map", "x0^2, x1^2"]],
        ids=repr,
    )
    def test_same_outcome_as_the_full_parser(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REESDEG_BUDGET", raising=False)
        (tmp_path / "m.txt").write_text(MATRIX_A0)
        direct = self.outcome(capsys, argv)
        monkeypatch.setattr(cli, "_parse_args", lambda args: build_parser(None).parse_args(args))
        assert direct == self.outcome(capsys, argv)
