"""Self-test of the benchmark's correctness gate and tracer.

Usage (from the repository root):  python3 perfbench/selftest.py

Shows that a right answer passes the gate, and that an injected wrong
answer, a nonzero exit code and an escaping exception each count as a
failed operation.  Also checks that the tracer sees every operation and
restores the library when removed.  Prints one line per check and exits
nonzero if any check fails.
"""

import contextlib
import os
import shutil
import sys

import worker

RESULTS = []


def check(name, ok):
    RESULTS.append(ok)
    print("%s %s" % ("ok  " if ok else "FAIL", name))


@contextlib.contextmanager
def wrong_degree(ratmap):
    """Make the fiber sampler report one more than the true degree."""
    real = ratmap.degree_map
    ratmap.degree_map = lambda *a, **k: (lambda v, log: (v + 1, log))(*real(*a, **k))
    try:
        yield
    finally:
        ratmap.degree_map = real


def main():
    cli = worker.import_reesdeg()
    import reesdeg.ratmap as ratmap
    from tracer import Tracer, layer_metrics
    from workloads import Op, check_answer, load_expected

    expected = load_expected()
    workdir = os.path.join(worker.ROOT, ".perfbench", "selftest-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        # seed 1 is the recorded seed: every operation has a recorded answer
        runner = worker.Runner("saturate_fp", 1, workdir, 1)
        ops = {op.label: op for op in runner.workload.round_ops(0)}
        hb = ops["degree hb11"]
        sq = ops["sfib-hf sq"]

        def gate(op):
            rc, out, _, _ = worker.run_op(cli, op)
            return check_answer(op, rc, out, expected)

        check("recorded answers cover the operation", hb.key in expected)
        check("a right answer passes", gate(hb) is None and gate(sq) is None)

        # wrong degree from the fiber sampler: the law and the record catch it
        with wrong_degree(ratmap):
            why = gate(hb)
        check("an injected wrong degree fails (%s)" % why, why is not None)

        # same output with only the law removed: the recorded answer catches it
        with wrong_degree(ratmap):
            why = gate(Op(hb.label, hb.argv, hb.key, None))
        check("the recorded answer alone catches it (%s)" % why, why is not None)

        with wrong_degree(ratmap):
            rows = [(op.label, w, c, 0.0, ok) for op in (hb, sq)
                    for w, c, ok in [runner.run_checked(op)]]
        check("a benchmark run counts it in failed", worker.report(rows)["failed"] == 1)

        missing = Op("degree missing", ("degree", "--map", os.path.join(workdir, "none.map")), "-")
        why = gate(missing)
        check("a nonzero exit code fails (%s)" % why, why is not None)

        real_handler = cli.HANDLERS["degree"]
        cli.HANDLERS["degree"] = lambda args: 1 / 0
        try:
            why = gate(hb)
        finally:
            cli.HANDLERS["degree"] = real_handler
        check("an escaping exception fails (%s)" % why, why is not None)

        tracer = Tracer()
        tracer.install()
        try:
            for op in (hb, sq):
                tracer.op += 1
                worker.run_op(cli, op)
        finally:
            tracer.uninstall()
        m = layer_metrics(tracer)
        check("tracer counts both operations", m["cli.ops"] == 2)
        check("tracer sees saturation inside ratmap", m["groebner.saturate.calls"] > 0)
        check("tracer restores the library", ratmap.saturate.__name__ == "saturate"
              and not hasattr(ratmap.saturate, "__wrapped__"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
