"""Record the answers that perfbench checks operations against.

Usage (from the repository root):  python3 perfbench/record_expected.py

Runs the warm-up and the first RECORD_ROUNDS rounds of seed 1 of every
workload, each workload in a fresh worker process, and
writes the digest of each answer's mathematically determined fields to
perfbench/expected.json, keyed by operation.  The operations of other
seeds whose inputs coincide with recorded ones (the hand-written maps)
are checked against it too.  Rerun only when an answer is meant to
change, and say why in the change that does it.
"""

import json
import os
import subprocess
import sys

from workloads import EXPECTED_PATH, RECORD_ROUNDS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD_SEED = 1


def main():
    answers = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "record", workload,
             str(RECORD_SEED), str(RECORD_ROUNDS)],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        got = json.loads(proc.stdout.strip().splitlines()[-1])["answers"]
        print("%s: %d operations" % (workload, len(got)))
        answers.update(got)
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(answers, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
