import argparse
import importlib.util
import json
import os
import subprocess
import sys
import time

import pytest

from reesdeg.cli import COMMON_FLAGS, SUBCOMMAND_FLAGS, build_parser, main
from reesdeg.groebner import EXP_BOUND

MATRIX_A0 = """\
ring x y z over 32003 order grevlex
matrix 3 x 2
x, z*y
32002*y, z*x + y^2
0, z*x
"""


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

    def test_huge_level_is_fast(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(MATRIX_A0)
        start = time.perf_counter()
        code, out = run(capsys, ["conditions", "--matrix", str(path), "--m", "1000000000"])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert len(json.loads(out)["G"]["table"]) == 2


class TestSweep:
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

    def test_m_defaults(self):
        parser = build_parser()
        assert parser.parse_args(["sweep", "--family", "dejonquieres"]).m == 2
        assert parser.parse_args(["gr-dim", "--family", "dejonquieres"]).m == 2
        assert parser.parse_args(["conditions", "--matrix", "m.txt"]).m is None

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
