"""reesdeg benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload saturate_fp --seed 1 --seconds 30 --trace 0

Each operation is one `reesdeg` subcommand run in-process through
`reesdeg.cli.main(argv)`, in a closed loop with one client: the next
operation starts when the previous one has returned.  All work happens in
fresh worker processes (perfbench/worker.py), so process-wide caches
start empty in every run.

A round runs every operation class of the workload once (see
workloads.py).  --trace 0 measures the end-to-end metrics: set-up is
timed in SETUP_RUNS fresh processes and reported as the median; the last
of them then runs a fixed number of rounds, --seconds divided by the
workload's round time at the commit that defined the benchmark.  Every
commit thus runs the same operations, the tail percentile is taken at
the same operation count, and a run lasts about --seconds.  --trace 1
runs round 0 twice untraced and twice traced, each in a fresh process;
the two traced passes must give identical counts.  Spans and a detailed
result file go to .perfbench/ in the checkout.

Times are reported at reference speed.  A shared machine can change
speed by up to 2x within seconds to minutes.  So the worker times a
fixed pure-Python reference loop between operations and at the end of
set-up, and each measured time is multiplied by (REF_S / r) ** REF_EXP,
where r is the mean reference time just before and just after it: about
the seconds it would have taken while the reference loop takes REF_S.
Raw times are kept in the result file.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")
PACKAGE = os.path.join(ROOT, "src", "reesdeg")

sys.path.insert(0, HERE)
from tracer import MODULES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 3
# typical time of worker.reference_time() on a 2-vCPU x86-64 VM (Python 3.11)
REF_S = 0.0025
# A slow stretch of that VM slowed reesdeg's operations a little less than
# the reference loop.  Over 10 runs of each workload at 2x-apart reference
# times, the run-to-run spread of the scaled times was least at exponent
# 1.0 on eliminate_fp, 0.9 on saturate_fp and 0.8 on rational_q.
REF_EXP = 0.9
# raw seconds per round, measured on a 2-vCPU x86-64 VM (Python 3.11) at
# the commit that defined the benchmark; fixes the round count per --seconds
ROUND_S = {"saturate_fp": 5.0, "eliminate_fp": 6.0, "rational_q": 2.15}
DEADLINE_S = 170  # every run ends well inside 180 s
TAIL_LADDER = (500, 750, 900, 950, 990, 999)  # percentiles, in tenths
TAIL_BEYOND = 10  # operations that must lie beyond the tail percentile


class BenchError(Exception):
    pass


def spawn(mode, workload, seed, deadline, rounds=0, extra=()):
    """Run one worker process to completion; returns its JSON result."""
    env = dict(os.environ)
    env.pop("REESDEG_BUDGET", None)  # the default step budget, always
    argv = [sys.executable, WORKER, mode, workload, str(seed), str(rounds)]
    argv += list(extra)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the %s worker" % mode)
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError("%s worker did not finish in time" % mode)
    if proc.returncode != 0:
        raise BenchError(
            "%s worker exited with %d:\n%s" % (mode, proc.returncode, proc.stderr[-4000:])
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s worker printed no result" % mode)
    return json.loads(lines[-1])


def percentile(sorted_xs, tenths):
    """Linear-interpolation percentile of a sorted list; `tenths` = p * 10."""
    pos = tenths / 1000 * (len(sorted_xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def tail_tenths(n):
    """Highest ladder percentile with at least TAIL_BEYOND operations beyond it."""
    best = TAIL_LADDER[0]
    for t in TAIL_LADDER:
        if n * (1000 - t) >= TAIL_BEYOND * 1000:
            best = t
    return best


def speed_factor(ref):
    """Factor that scales a time measured beside reference time `ref`."""
    return (REF_S / ref) ** REF_EXP


def at_reference_speed(ops):
    """(label, wall, cpu) of each operation, scaled to reference speed by
    the reference time measured around it."""
    out = []
    for label, wall, cpu, ref in ops:
        f = speed_factor(ref)
        out.append((label, wall * f, cpu * f))
    return out


def setup_at_reference_speed(result):
    return result["setup_s"] * speed_factor(result["setup_ref_s"])


def ops_per_s(ops):
    return len(ops) / sum(w for _, w, _ in at_reference_speed(ops))


def lines_of_code():
    """Non-blank, non-comment lines of each reesdeg module."""
    out = {}
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, fname)) as fh:
            n = sum(1 for ln in fh if ln.strip() and not ln.strip().startswith("#"))
        out[fname[:-3]] = n
    return out


def end_to_end(args, deadline):
    rounds = max(1, round(args.seconds / ROUND_S[args.workload]))
    setups = [
        spawn("setup", args.workload, args.seed, deadline, rounds) for _ in range(SETUP_RUNS - 1)
    ]
    timed = spawn("timed", args.workload, args.seed, deadline, rounds)
    setups.append(timed)
    ops = at_reference_speed(timed["ops"])
    n = len(ops)
    # Each operation counts with the median wall and CPU time of its class
    # over the rounds (one instance per round), so a percentile never lands
    # on one extreme operation.
    by_label = {}
    for label, w, cpu in ops:
        by_label.setdefault(label, []).append((w, cpu))
    typical_wall = {k: statistics.median(w for w, _ in v) for k, v in by_label.items()}
    typical_cpu = {k: statistics.median(c for _, c in v) for k, v in by_label.items()}
    walls = sorted(typical_wall[label] for label, _, _ in ops)
    tail = tail_tenths(n)
    metrics = {
        "ops_per_s": (len(by_label) / sum(typical_wall.values()), "1/s"),
        "latency_p50_s": (statistics.median(walls), "s"),
        "latency_tail_s": (percentile(walls, tail), "s"),
        "cpu_per_op_s": (sum(typical_cpu.values()) / len(by_label), "s"),
        "success_rate": ((n - timed["failed"]) / n, "ratio"),
        "setup_s": (statistics.median(setup_at_reference_speed(s) for s in setups), "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
    }
    per_round = n // rounds
    detail = {
        "rounds": rounds,
        "round_wall_s": [
            sum(w for _, w, _ in ops[i : i + per_round]) for i in range(0, n, per_round)
        ],
        "latency_tail_percentile": tail / 10,
        "median_latency_by_operation_s": dict(sorted(typical_wall.items())),
        "setup_runs_s": [setup_at_reference_speed(s) for s in setups],
        "raw_setup_runs_s": [s["setup_s"] for s in setups],
        "raw_operations": timed["ops"],
    }
    failures = [f for s in setups for f in s["failures"]]
    print("operations: %d in %d rounds" % (n, rounds))
    print("latency_tail_s is p%g of %d operations" % (tail / 10, n))
    return metrics, n, timed["failed"], failures, detail


def per_layer(args, deadline):
    # untraced rounds before and after the traced passes, so a slow
    # stretch of the machine does not land on one side only
    base = [spawn("timed", args.workload, args.seed, deadline, 1)]
    passes = []
    for k in (1, 2):
        path = os.path.join(
            OUT_DIR, "spans-%s-seed%d-pass%d.tsv" % (args.workload, args.seed, k)
        )
        passes.append(spawn("trace", args.workload, args.seed, deadline, extra=[path]))
    base.append(spawn("timed", args.workload, args.seed, deadline, 1))
    first, second = (p["layers"] for p in passes)
    mismatched = sorted(
        k for k in first if not k.endswith("self_s") and first[k] != second[k]
    )
    # a pass's self times, at reference speed by the pass's median reference time
    speed = [speed_factor(statistics.median(r for *_, r in p["ops"])) for p in passes]
    metrics = {}
    for k, v in first.items():
        if k.endswith("self_s"):
            metrics[k] = ((v * speed[0] + second[k] * speed[1]) / 2, "s")
        elif k.endswith(("ratio", "yield")):
            metrics[k] = (v, "ratio")
        elif k == "groebner.coeff_bits_max":
            metrics[k] = (v, "bits")
        else:
            metrics[k] = (v, "count")
    untraced = statistics.mean(ops_per_s(r["ops"]) for r in base)
    traced = statistics.mean(ops_per_s(r["ops"]) for r in passes)
    metrics["trace.ops_per_s_untraced"] = (untraced, "1/s")
    metrics["trace.ops_per_s_traced"] = (traced, "1/s")
    metrics["trace.overhead_ops_per_s"] = (untraced - traced, "1/s")
    metrics["trace.spans"] = (passes[0]["spans"], "count")
    loc = lines_of_code()
    for module in MODULES:
        metrics[module + ".loc"] = (loc.get(module, 0), "lines")
    metrics["src.loc"] = (sum(loc.values()), "lines")
    runs = base + passes
    failures = [f for r in runs for f in r["failures"]]
    failures += ["traced counts differ between two passes: %s" % k for k in mismatched]
    attempted = sum(len(r["ops"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    print("traced passes: %d spans each; counts %s" % (
        passes[0]["spans"], "identical" if not mismatched else "DIFFER"))
    return metrics, attempted, failed, failures, {"loc": loc}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM unwind like Ctrl-C: subprocess.run then kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        sys.stderr.write("error: no reesdeg package at %s\n" % PACKAGE)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, attempted, failed, failures, detail = measure(args, deadline)
    except BenchError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    for f in failures[:20]:
        print("FAILED %s" % f)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail.update(failures=failures, **result)
    path = os.path.join(
        OUT_DIR, "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    )
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
