"""Every case of golden_cli prints exactly its recorded bytes.

The cases run in-process here; `python3 tests/golden_cli.py` checks the
same files through a fresh interpreter, with the standard library alone.
"""

import pytest

from golden_cli import CASES, GOLDEN, MATRICES
from reesdeg.cli import main


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_every_golden_file_has_a_case():
    recorded = {p.name for p in GOLDEN.iterdir()} - {name + ".txt" for name in MATRICES}
    assert recorded == set(CASES)
