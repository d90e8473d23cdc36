"""Deterministic work counts and checked answers of the benchmark
workloads, per command.

Runs rounds 0..N-1 of each workload in perfbench/workloads.py at one
seed, in-process, and prints for every command the budget steps the
operations charged, the Buchberger runs, the `_reduce` calls, those of
them that returned an empty remainder (`zero`: reductions whose work
only showed that a polynomial was already in the ideal), the rows sent
to `_reduce_tails`, the products of the minor and sub-Pfaffian chain
(`chain`: on packed terms, on values at lattice points and on a line),
the maps the Koszul exit of the Hilbert-Burch rule certified (`koszul`:
`blowup._koszul_degrees` returned column degrees), the rows of the span
tests (`raised`: the rows `conditions._raised` yielded to the height
pass of `conditions`, the coprimality test and the Koszul exit's
m-primary test) and the failed operations, with a total per workload.  The
counts do not depend on the machine or its load, so they compare two
trees where wall time on a shared host cannot:

    python3 tests/step_report.py --seed 7 --rounds 3
    python3 tests/step_report.py --workload eliminate_fp
    python3 tests/step_report.py --seed 7 --rounds 3 --times
    python3 tests/step_report.py --seed 7 --rounds 3 --labels

With --times, one warm-up operation per command runs first, on the
workload's warm-up instances, and each command's in-process wall time,
summed over the rounds, is printed beside the counts in ms and as a
share of the workload's total.  Between them, `io ms` is the part of
that time spent at the text boundary: parsing the command line
(`argparse.ArgumentParser.parse_known_args`, which the subcommand's
parser and the full parser both go through), loading the input
(`cli._load_map`, `cli._load_family`, which builds a named family's
matrix, and `parse_matrix_file`), formatting generators (`format_poly`)
and writing the output (`cli._emit`); a call made inside another of
them counts once.  These three columns depend on the machine and its
load; the others do not.  With --labels, each command's row is
followed by one row per operation label of that command, such as
`image pf` or `conditions m65`, with the same columns.

An operation fails when its exit code is nonzero or when
`workloads.check_answer` rejects its answer: the laws of its family
apply at every seed, and at seed 1 the answers recorded in
perfbench/expected.json do too.  Each failure is printed, and the
script exits 1 when there is one.

Only the standard library is needed.  The workload module is imported
and used as it is; the counters wrap functions of reesdeg.groebner,
reesdeg.conditions and reesdeg.blowup for the length of the run.
"""

import argparse
import contextlib
import io
import os
import sys
import tempfile
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import reesdeg.blowup as blowup  # noqa: E402
import reesdeg.cli as cli  # noqa: E402
import reesdeg.conditions as conditions  # noqa: E402
import reesdeg.groebner as gb  # noqa: E402
from workloads import WORKLOADS, Workload, check_answer, load_expected  # noqa: E402

RECORDED_SEED = 1  # the seed whose answers perfbench/expected.json holds

COLUMNS = ("steps", "runs", "reduce", "zero", "tails_rows", "chain", "koszul", "raised", "failed")


@contextlib.contextmanager
def counting():
    """Wrap the engine so that `counts` (yielded) accumulates runs,
    `_reduce` calls and empty remainders, tails rows, chain products,
    Koszul certificates and span rows; `budgets` keeps every step budget
    made, whose spent steps are read afterwards."""
    counts = defaultdict(int)
    budgets = []
    names = ("_Budget", "_buchberger", "_reduce", "_reduce_tails")
    saved = {name: getattr(gb, name) for name in names}
    # the chain's sums of products: on terms and on a line, on values
    sums = {name: getattr(conditions, name) for name in ("_expansion", "_pointwise")}
    koszul = blowup._koszul_degrees
    # bound in blowup too, by its import from conditions
    raised = conditions._raised

    class Budget(saved["_Budget"]):
        __slots__ = ()

        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    def buchberger(*args, **kwargs):
        counts["runs"] += 1
        return saved["_buchberger"](*args, **kwargs)

    def reduce(*args, **kwargs):
        counts["reduce"] += 1
        out = saved["_reduce"](*args, **kwargs)
        counts["zero"] += not out[0]
        return out

    def reduce_tails(basis, *args):
        counts["tails_rows"] += len(basis)
        return saved["_reduce_tails"](basis, *args)

    def counted(fn):
        def wrapper(products, *args, **kwargs):
            counts["chain"] += len(products)
            return fn(products, *args, **kwargs)
        return wrapper

    def koszul_degrees(*args, **kwargs):
        mu = koszul(*args, **kwargs)
        counts["koszul"] += mu is not None
        return mu

    def raised_rows(*args):
        for row in raised(*args):
            counts["raised"] += 1
            yield row

    gb._Budget, gb._buchberger, gb._reduce, gb._reduce_tails = (
        Budget, buchberger, reduce, reduce_tails)
    for name, fn in sums.items():
        setattr(conditions, name, counted(fn))
    blowup._koszul_degrees = koszul_degrees
    conditions._raised = blowup._raised = raised_rows
    try:
        yield counts, budgets
    finally:
        for name, fn in saved.items():
            setattr(gb, name, fn)
        for name, fn in sums.items():
            setattr(conditions, name, fn)
        blowup._koszul_degrees = koszul
        conditions._raised = blowup._raised = raised


# the text boundary of a command: what `cli` calls to read its command
# line and input and to write its answer
IO_FUNCTIONS = ("_load_map", "_load_family", "parse_matrix_file", "format_poly", "_emit")


@contextlib.contextmanager
def io_timing():
    """Wrap the text boundary so that `seconds` (yielded) accumulates,
    under "io", the time spent in it, counting only the outermost call
    when one of its functions calls another."""
    seconds = defaultdict(float)
    depth = [0]
    saved = {name: getattr(cli, name) for name in IO_FUNCTIONS}
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def timed(fn):
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds["io"] += time.perf_counter() - start
                depth[0] -= 1
        return wrapper

    for name, fn in saved.items():
        setattr(cli, name, timed(fn))
    argparse.ArgumentParser.parse_known_args = timed(parse_known_args)
    try:
        yield seconds
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)
        argparse.ArgumentParser.parse_known_args = parse_known_args


def run_op(argv, out=None):
    """(exit code, counts) of one command line run in-process; its
    standard output goes to the text stream `out` when one is given.  An
    exception that escapes the command is returned as a message in place
    of the exit code, as perfbench/worker.py records it."""
    out = io.StringIO() if out is None else out
    with counting() as (counts, budgets):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(list(argv))
            except Exception as exc:
                rc = "exception %s: %s" % (type(exc).__name__, exc)
        counts["steps"] = sum(b.limit - b.left for b in budgets)
    return rc, counts


def workload_counts(name, seed, rounds, times=False, labels=False):
    """({command: {column: total}}, [failure messages]) over rounds
    0..rounds-1 of a workload.  With `times`, the warm-up operations run
    first, and each row also sums the wall time of its operations in
    seconds, under "seconds".  With `labels`, the table also holds a row
    per operation label, keyed by the label, which is the command and a
    space and the instance.  With `times`, each row also sums the part of
    that time spent at the text boundary, under "io"."""
    expected = load_expected() if seed == RECORDED_SEED else {}
    table = defaultdict(lambda: dict.fromkeys(COLUMNS + ("seconds", "io") * times, 0))
    failures = []
    with tempfile.TemporaryDirectory() as workdir, (
        io_timing() if times else contextlib.nullcontext(defaultdict(float))
    ) as boundary:
        work = Workload(name, seed, workdir, rounds)
        for op in work.warm_up_ops() if times else ():
            run_op(op.argv)
        for j in range(rounds):
            for op in work.round_ops(j):
                out = io.StringIO()
                before = boundary["io"]
                start = time.perf_counter()
                rc, counts = run_op(op.argv, out)
                seconds = time.perf_counter() - start
                why = check_answer(op, rc, out.getvalue(), expected)
                for key in (op.argv[0],) + (op.label,) * labels:
                    row = table[key]
                    if times:
                        row["seconds"] += seconds
                        row["io"] += boundary["io"] - before
                    for col in COLUMNS[:-1]:
                        row[col] += counts[col]
                    row["failed"] += why is not None
                if why is not None:
                    failures.append("%s round %d, %s: %s" % (name, j, op.label, why))
    return dict(table), failures


def format_table(name, table):
    """The table's lines; when its rows carry "seconds", each line also
    gives that time in ms, the part of it spent at the text boundary in
    ms, and the time as a share of the total.  Label rows, whose keys
    hold a space, follow their command's row, indented further."""
    timed = any("seconds" in row for row in table.values())
    commands = [key for key in table if " " not in key]
    total = {col: sum(table[c][col] for c in commands) for col in COLUMNS}
    lines = ["%-24s" % name + "".join("%12s" % col for col in COLUMNS)]
    if timed:
        for col in ("seconds", "io"):
            total[col] = sum(table[c][col] for c in commands)
        lines[0] += "%12s%12s%12s" % ("ms", "io ms", "share")
    keys = [k for c in commands for k in table if k == c or k.startswith(c + " ")]
    for key, row in [(k, table[k]) for k in keys] + [("total", total)]:
        line = ("    %-20s" if " " in key else "  %-22s") % key
        line += "".join("%12d" % row[col] for col in COLUMNS)
        if timed:
            share = 100 * row["seconds"] / total["seconds"] if total["seconds"] else 0.0
            line += "%12.1f%12.1f%11.1f%%" % (1000 * row["seconds"], 1000 * row["io"], share)
        lines.append(line)
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=3, help="rounds 0..N-1 (default 3)")
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument(
        "--times", action="store_true",
        help="also print each command's wall time after a warm-up, in ms, its text"
        " boundary part in ms, and the time as a share",
    )
    parser.add_argument(
        "--labels", action="store_true",
        help="also print one row per operation label under its command's row",
    )
    args = parser.parse_args(argv)
    print("seed %d, rounds 0..%d" % (args.seed, args.rounds - 1))
    failures = []
    for name in args.workload or WORKLOADS:
        table, failed = workload_counts(name, args.seed, args.rounds, args.times, args.labels)
        print("\n".join(format_table(name, table)))
        failures += failed
    for line in failures:
        print("FAILED " + line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
