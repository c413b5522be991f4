"""Every narrated demo runs to completion.  Outside the tests, the demos are
the only callers of the public names, so a removed or renamed name shows
up here."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
