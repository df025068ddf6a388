"""Smoke runs of the two scripts, each as its own process: the invexity tour
(which also drives `pointwise_survey`) and the alternative-system stress."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import vopt

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv, audits", [
    (["scripts/invexity_tour.py", "--grid", "41"], 4),  # one inclusion audit per fixture
    (["scripts/alternative_stress.py", "--count", "50"], 1),
])
def test_script_runs_clean(argv, audits):
    env = {**os.environ, "PYTHONPATH": str(Path(vopt.__file__).parents[1])}
    out = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                         cwd=ROOT, timeout=120)
    assert out.returncode == 0, out.stderr
    counts = [ln for ln in out.stdout.splitlines() if "violation(s)" in ln]
    assert len(counts) == audits and all("0 violation(s)" in ln for ln in counts), counts
