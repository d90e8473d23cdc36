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
zero entries off the diagonal.

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
