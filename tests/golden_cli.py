"""Golden command-line output over Q and over F_32003.

Each case runs one subcommand, in JSON and in text, on input whose
coefficients include negative integers and fractions, and its standard
output must equal the file recorded under tests/golden/cli byte for
byte.  The cases pin how coefficients print: the sign of a negative
integer, `n/m` for a fraction, and each generator printed once.  The
`rees`, `fiber-cone` and `image` listings also run over F_32003, on the
same maps and on one whose Rees rows have tails that reduce, so the
reduced bases they print are pinned over F_p as well.  `degree`,
`jmult` and `gr-dim` run over both fields, and `sweep` runs the de
Jonquieres family at m = 2 over both, so every command that reads a map
degree is pinned, and so is the gr dimension of a map.  `rees`,
`fiber-cone`, `image` and `degree` also run "quad5" with --ring in the
lex order and in the order elim:1, so a map ring's order is pinned too.
`conditions` runs on every matrix file of MATRICES: a 4x3 matrix over
Q, the linear 5x5 Pfaffian family matrix over F_32003 and over Q, and a
6x6 alternating matrix of linear forms in 7 variables over F_7 with
zero entries off the diagonal.  The forms of RING_MAPS run over both
fields in the ring named beside them: the sub-Pfaffians of that Q
matrix, a birational map onto P^4; three quadrics in x0, x1 of P^2,
which are algebraically dependent; two squares of P^2, which are
independent forms with s < r; the standard Cremona map of P^2; and the
three squares of P^2, a map of degree 4 with no linear syzygy; and two
Hilbert-Burch maps of P^2, the 2-minors of a 3x2 matrix whose columns
have degrees (1, 1), a birational map, and (1, 2), a map of degree 2.
Between them they pin `image`, `fiber-cone`, `degree` and `jmult` on
birational, dependent, finite and not generically finite maps, and
`sfib-hf` at n = 0..3 on the three birational maps that the Jacobian
dual certifies (the Pfaffian, Cremona and (1, 1) maps) and on the
(1, 2) map, which it does not.  `sfib-hf` also runs at n = 0..4 on two
maps whose values are not C(n+r, r): x0^3, x1^3 of P^1, whose values
are 3n + 1, and the 2-minors of a 3x2 matrix whose columns have degrees
(2, 3), a map of P^2 of degree 6 whose values 1, 3, 9, 22, 41 need the
rank of a map between cohomology groups, not a binomial alone.

The module needs only the standard library, so any interpreter that
runs the package can check the recorded bytes:

    python3 tests/golden_cli.py            # compare; exit 1 on a difference
    python3 tests/golden_cli.py --record   # rewrite the recorded files

Re-record only when a change of output is intended.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

MAPS = {
    # a map of degree 4 onto P^2: its fiber cone is zero
    "q1": "1/7*x0^2 - 3*x0*x1, x1^2 - 5/2*x0*x2, x2^2",
    # a birational map onto a quadric surface of P^3
    "q2": "1/2*x0^2, -3*x0*x1, x1^2 - 2/3*x0*x2, -x0*x2",
}
MAP_COMMANDS = ("rees", "fiber-cone", "image", "degree", "sfib-hf", "jmult", "gr-dim")
# listings over F_32003; the Rees basis of "quad5" in the elimination
# order has rows whose tails reduce against the other kept rows
FP_MAPS = dict(MAPS, quad5="x0^2, x1^2, x2^2, x0*x1 - x1*x2, x0*x2 + x1*x2")
FP_COMMANDS = ("rees", "fiber-cone", "image", "degree", "jmult", "gr-dim")
# "quad5" in map rings under other orders, named by --ring
ORDERS = {"lex": "lex", "elim1": "elim:1"}
ORDER_COMMANDS = ("rees", "fiber-cone", "image", "degree")
# (ring variables, forms, commands) of maps run in a ring named by --ring
RING_MAPS = {
    # the sub-Pfaffians of the 5x5 matrix in pfaffian5_q.txt
    "pf5": (
        "x0 x1 x2 x3 x4",
        "142*x0^2 + 324*x0*x1 + 197*x1^2 + 215*x0*x2 + 319*x1*x2 + 117*x2^2 + 273*x0*x3"
        " + 295*x1*x3 + 202*x2*x3 + 145*x3^2 + 214*x0*x4 + 265*x1*x4 + 221*x2*x4 + 213*x3*x4"
        " + 50*x4^2, -86*x0^2 - 250*x0*x1 - 185*x1^2 - 143*x0*x2 - 292*x1*x2 - 123*x2^2"
        " - 261*x0*x3 - 276*x1*x3 - 174*x2*x3 - 127*x3^2 - 230*x0*x4 - 331*x1*x4 - 251*x2*x4"
        " - 253*x3*x4 - 124*x4^2, 120*x0^2 + 161*x0*x1 + 66*x1^2 + 154*x0*x2 + 124*x1*x2"
        " + 56*x2^2 + 101*x0*x3 + 66*x1*x3 + 75*x2*x3 + 10*x3^2 + 125*x0*x4 + 88*x1*x4"
        " + 71*x2*x4 + 39*x3*x4 + 45*x4^2, -114*x0^2 - 97*x0*x1 - 4*x1^2 - 101*x0*x2"
        " + 3*x1*x2 + 13*x2^2 - 72*x0*x3 + 21*x1*x3 + 18*x2*x3 + 24*x3^2 - 49*x0*x4"
        " - 28*x1*x4 - 20*x2*x4 + 24*x3*x4 - 19*x4^2, 82*x0^2 + 89*x0*x1 + 73*x1^2"
        " + 2*x0*x2 + 46*x1*x2 - 14*x2^2 + 130*x0*x3 + 139*x1*x3 + 52*x2*x3 + 64*x3^2"
        " + 113*x0*x4 + 158*x1*x4 + 83*x2*x4 + 116*x3*x4 + 43*x4^2",
        ("image", "fiber-cone", "degree", "jmult", "sfib-hf"),
    ),
    "conic3": ("x0 x1 x2", "x0^2, x0*x1, x1^2", ("image", "fiber-cone")),
    "squares3": ("x0 x1 x2", "x0^2, x1^2", ("degree", "jmult", "image")),
    # the standard Cremona map of P^2, birational
    "cremona3": ("x0 x1 x2", "x1*x2, x0*x2, x0*x1", ("degree", "jmult", "sfib-hf")),
    # the 2-minors of a 3x2 matrix with linear columns, birational
    "hb11": (
        "x0 x1 x2",
        "3*x1^2 - x0*x2 + 5/2*x1*x2, -3*x0*x1 - 1/2*x0*x2 + x2^2, x0^2 - 2*x0*x1 - x1*x2",
        ("sfib-hf",),
    ),
    # the 2-minors of a 3x2 matrix with a linear and a quadric column,
    # a map of degree 2 with one linear syzygy
    "hb12": (
        "x0 x1 x2",
        "x0^2*x1 - 1/2*x0*x1*x2 - 3*x1^2*x2 + x2^3, -x0^3 + 3*x0*x1*x2 + x1^2*x2,"
        " 1/2*x0^2*x1 - x1^3 - x0*x2^2",
        ("sfib-hf",),
    ),
    # three squares of P^2, of degree 4 and with no linear syzygy
    "diag3": ("x0 x1 x2", "x0^2, x1^2, x2^2", ("degree", "jmult")),
    # a map of P^1 of degree 3
    "cubes2": ("x0 x1", "x0^3, x1^3", ("sfib-hf",)),
    # the 2-minors of the Hilbert-Burch family's 3x2 matrix over Q with
    # columns of degrees (2, 3) at seed 5, a map of degree 6
    "hb23": (
        "x0 x1 x2",
        "-4*x0^5 - 31*x0^4*x1 - 9*x0^3*x1^2 + 8*x0^2*x1^3 - 6*x0*x1^4 + 21*x1^5 - 37*x0^4*x2"
        " - 114*x0^3*x1*x2 - 104*x0^2*x1^2*x2 - 74*x0*x1^3*x2 - x1^4*x2 - 85*x0^3*x2^2"
        " - 85*x0^2*x1*x2^2 - 42*x0*x1^2*x2^2 + 44*x1^3*x2^2 + 41*x0^2*x2^3 + 14*x0*x1*x2^3"
        " + 103*x1^2*x2^3 + 58*x0*x2^4 + 43*x1*x2^4 + 84*x2^5, 23*x0^5 + 122*x0^4*x1"
        " + 151*x0^3*x1^2 + 79*x0^2*x1^3 + 25*x0*x1^4 - 22*x1^5 + 61*x0^4*x2 + 71*x0^3*x1*x2"
        " + 5*x0^2*x1^2*x2 - 60*x0*x1^3*x2 - 69*x1^4*x2 - 14*x0^3*x2^2 + 35*x0^2*x1*x2^2"
        " - 20*x0*x1^2*x2^2 - 128*x1^3*x2^2 - 43*x0^2*x2^3 - 40*x0*x1*x2^3 - 111*x1^2*x2^3"
        " - 51*x0*x2^4 - 132*x1*x2^4 - 90*x2^5, -48*x0^5 - 86*x0^4*x1 - 130*x0^3*x1^2"
        " - 65*x0^2*x1^3 - 37*x0*x1^4 + 9*x1^5 + 83*x0^4*x2 + 69*x0^3*x1*x2 + 114*x0^2*x1^2*x2"
        " + 90*x0*x1^3*x2 + 49*x1^4*x2 + 37*x0^3*x2^2 + 115*x0^2*x1*x2^2 + 45*x0*x1^2*x2^2"
        " + 104*x1^3*x2^2 + 89*x0^2*x2^3 + 90*x0*x1*x2^3 + 44*x1^2*x2^3 - 68*x0*x2^4"
        " + 28*x1*x2^4 - 36*x2^5",
        ("sfib-hf",),
    ),
}
# the powers n at which `sfib-hf` runs on the maps of RING_MAPS: 0..3,
# and 0..4 where the name is listed
SFIB_POINTS = {"cubes2": "0,1,2,3,4", "hb23": "0,1,2,3,4"}
# input matrices of `conditions`, under tests/golden/cli
MATRICES = ("matrix_q", "pfaffian5_p32003", "pfaffian5_q", "alternating6_p7")
SWEEP = ["sweep", "--family", "dejonquieres", "--m", "2", "--points", "0,1,2"]
FORMATS = {"json": "json", "text": "txt"}


def _cases():
    """{file name: argv} of every recorded case."""
    out = {}
    for fmt, ext in FORMATS.items():
        for command in MAP_COMMANDS:
            for name, forms in MAPS.items():
                argv = [command, "--map", forms, "--prime", "0", "--format", fmt]
                out["%s-%s.%s" % (command, name, ext)] = argv
        for command in FP_COMMANDS:
            for name, forms in FP_MAPS.items():
                argv = [command, "--map", forms, "--prime", "32003", "--format", fmt]
                out["%s-%s-p32003.%s" % (command, name, ext)] = argv
        for command in ORDER_COMMANDS:
            for tag, order in ORDERS.items():
                ring = "x0 x1 x2 over 32003 order " + order
                argv = [command, "--map", FP_MAPS["quad5"], "--ring", ring, "--format", fmt]
                out["%s-quad5-%s-p32003.%s" % (command, tag, ext)] = argv
        for prime, suffix in (("0", ""), ("32003", "-p32003")):
            for name, (names, forms, commands) in RING_MAPS.items():
                ring = "%s over %s" % (names, prime)
                for command in commands:
                    argv = [command, "--map", forms, "--ring", ring, "--format", fmt]
                    if command == "sfib-hf":
                        argv += ["--points", SFIB_POINTS.get(name, "0,1,2,3")]
                    out["%s-%s%s.%s" % (command, name, suffix, ext)] = argv
            argv = SWEEP + ["--prime", prime, "--format", fmt]
            out["sweep-dejonquieres%s.%s" % (suffix, ext)] = argv
        for name in MATRICES:
            matrix = str(GOLDEN / (name + ".txt"))
            out["conditions-%s.%s" % (name, ext)] = ["conditions", "--matrix", matrix, "--format", fmt]
    return out


CASES = _cases()


def run_cli(argv, python=sys.executable):
    """(exit code, stdout, stderr) of the command line run in a fresh
    interpreter on the package in src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    run = subprocess.run(
        [python, "-m", "reesdeg.cli"] + argv, capture_output=True, env=env, timeout=120
    )
    return run.returncode, run.stdout, run.stderr


def main(args):
    record = "--record" in args
    bad = []
    for name, argv in CASES.items():
        code, out, err = run_cli(argv)
        if code or err:
            bad.append("%s: exit %d, stderr %r" % (name, code, err))
        elif record:
            (GOLDEN / name).write_bytes(out)
        elif out != (GOLDEN / name).read_bytes():
            bad.append("%s: output differs from the recorded bytes" % name)
    for line in bad:
        print(line)
    print("%d of %d cases %s" % (
        len(CASES) - len(bad), len(CASES), "recorded" if record else "match"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
