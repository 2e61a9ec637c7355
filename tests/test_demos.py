"""Every demo script runs to completion, with every warning an error, and
prints its narrative; a printed misfit stays at rounding level."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    # the alternating demo compares its odd member with the modified family
    misfits = re.findall(r"relative misfit (\S+)", proc.stdout)
    assert (demo.stem == "alternating_sequence") == bool(misfits)
    assert all(float(x) < 1e-12 for x in misfits)
