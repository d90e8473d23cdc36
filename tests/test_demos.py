"""Every demo prints exactly its recorded output.

The files in tests/golden/demos hold each demo's standard output; a
change that alters an answer, a basis or a printed form shows up here.
Re-record a file only when the change of output is intended.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    run = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / (demo.stem + ".txt")).read_text()


def test_every_demo_has_a_golden_file():
    assert [d.stem for d in DEMOS] == sorted(g.stem for g in GOLDEN.glob("*.txt"))
