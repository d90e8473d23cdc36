"""One fresh benchmark process: set up a workload, then run it.

Usage: python3 perfbench/worker.py MODE WORKLOAD SEED ROUNDS [SPANS_PATH]

MODE is one of
  setup   set up only and report the set-up time;
  timed   run rounds 0..ROUNDS-1, recording each operation's wall and
          CPU time and the time of the reference loop around it;
  trace   run round 0 once with the span tracer installed, write the
          spans to SPANS_PATH and report per-module metrics;
  record  run warm-up and rounds 0..ROUNDS-1 and report each answer's
          digest, for expected.json.

Every mode builds the inputs of ROUNDS rounds (at least one) in set-up.

Set-up is everything before the first measured operation: importing
reesdeg from the checkout's src/, writing the inputs and the warm-up
operations.  Each operation calls reesdeg.cli.main(argv) in-process,
with stdout and stderr captured; answers are checked after the clock
stops.  The result is one JSON object on stdout.

The reference loop is a fixed piece of pure Python that uses nothing
from reesdeg.  Its time tracks how fast the shared machine runs Python
at that moment; run.py scales operation times by it.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any other import

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

P = 32003
REF_REPEAT = 5
SETUP_REF_SAMPLES = 9


def _dense(n, off):
    return {
        (i, j, n - 1 - i - j): (7 * i + 3 * j + off) % P
        for i in range(n)
        for j in range(n - i)
    }


REF_A = _dense(9, 1)
REF_B = _dense(8, 5)


def reference_time():
    """Wall time of the reference loop: a sparse product of two dense
    ternary forms mod P, the kind of dict-of-tuples arithmetic reesdeg's
    own hot loops do, repeated REF_REPEAT times."""
    w0 = time.perf_counter()
    for _ in range(REF_REPEAT):
        out = {}
        get = out.get
        for (a0, a1, a2), ca in REF_A.items():
            for (b0, b1, b2), cb in REF_B.items():
                m = (a0 + b0, a1 + b1, a2 + b2)
                out[m] = (get(m, 0) + ca * cb) % P
    return time.perf_counter() - w0


def import_reesdeg():
    """Import the library from this checkout, never from site-packages."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import reesdeg
    import reesdeg.cli

    if not os.path.abspath(reesdeg.__file__).startswith(os.path.join(SRC, "reesdeg")):
        raise SystemExit("reesdeg was imported from %s, not %s" % (reesdeg.__file__, SRC))
    return reesdeg.cli


def run_op(cli, op):
    """Run one operation; returns (exit code, stdout text, wall s, cpu s)."""
    out = io.StringIO()
    err = io.StringIO()
    w0 = time.perf_counter()
    c0 = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except Exception as exc:  # an escaped exception is a failed operation
        rc = "exception %s: %s" % (type(exc).__name__, exc)
    c1 = time.process_time()
    w1 = time.perf_counter()
    return rc, out.getvalue(), w1 - w0, c1 - c0


class Runner:
    def __init__(self, workload, seed, workdir, rounds):
        # looked up per call, so an installed tracer sees cli.main too
        self.cli = import_reesdeg()
        from workloads import Workload, check_answer, load_expected

        self.check_answer = check_answer
        self.expected = load_expected()
        self.workload = Workload(workload, seed, workdir, rounds)
        self.failures = []
        for op in self.workload.warm_up_ops():
            self.run_checked(op)
        self.setup_s = time.perf_counter() - T0
        refs = sorted(reference_time() for _ in range(SETUP_REF_SAMPLES))
        self.setup_ref_s = refs[SETUP_REF_SAMPLES // 2]

    def run_checked(self, op):
        rc, out, wall, cpu = run_op(self.cli, op)
        why = self.check_answer(op, rc, out, self.expected)
        if why is not None:
            self.failures.append("%s: %s" % (op.label, why))
        return wall, cpu, why is None

    def run_round(self, j, tracer=None):
        """Rows (label, wall, cpu, ref, ok); ref is the mean reference time
        of the runs of the reference loop just before and just after."""
        rows = []
        before = reference_time()
        for op in self.workload.round_ops(j):
            if tracer is not None:
                tracer.op += 1
            wall, cpu, ok = self.run_checked(op)
            after = reference_time()
            rows.append((op.label, wall, cpu, (before + after) / 2, ok))
            before = after
        return rows


def report(rows):
    return {
        "ops": [list(r[:4]) for r in rows],
        "failed": sum(1 for r in rows if not r[4]),
    }


def mode_timed(runner, rounds):
    rows = []
    for j in range(rounds):
        rows += runner.run_round(j)
    return report(rows)


def mode_trace(runner, spans_path):
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        rows = runner.run_round(0, tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    result = report(rows)
    result.update(layers=layer_metrics(tracer), spans=len(tracer.spans))
    return result


def mode_record(runner):
    from workloads import canonical_digest

    ops = list(runner.workload.warm_up_ops())
    for j in range(len(runner.workload.pool)):
        ops += runner.workload.round_ops(j)
    answers = {}
    for op in ops:
        rc, out, _, _ = run_op(runner.cli, op)
        why = runner.check_answer(op, rc, out, {})
        if why is not None:
            raise SystemExit("%s: %s" % (op.label, why))
        answers[op.key] = canonical_digest(json.loads(out))
    return {"answers": answers}


def main(argv):
    mode, workload, seed, rounds = argv[:4]
    seed = int(seed)
    warnings.simplefilter("ignore")  # fiber-trial disagreement notices
    workdir = os.path.join(ROOT, ".perfbench", "inputs-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        runner = Runner(workload, seed, workdir, int(rounds))
        result = {"setup_s": runner.setup_s, "setup_ref_s": runner.setup_ref_s}
        if mode == "timed":
            result.update(mode_timed(runner, int(rounds)))
        elif mode == "trace":
            result.update(mode_trace(runner, argv[4]))
        elif mode == "record":
            result.update(mode_record(runner))
        elif mode != "setup":
            raise SystemExit("unknown mode %r" % mode)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["failures"] = runner.failures
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
    except Exception:
        traceback.print_exc()
        sys.exit(1)
