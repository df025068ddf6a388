"""Smoke runs of the scripts, each as its own process: the invexity tour
(which also drives `pointwise_survey`), the alternative-system stress and
the payload census."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vopt

ROOT = Path(__file__).resolve().parents[1]


def _run(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(vopt.__file__).parents[1])}
    out = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                         cwd=ROOT, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("argv, audits", [
    (["scripts/invexity_tour.py", "--grid", "41"], 4),  # one inclusion audit per fixture
    (["scripts/alternative_stress.py", "--count", "50"], 1),
])
def test_script_runs_clean(argv, audits):
    counts = [ln for ln in _run(argv).splitlines() if "violation(s)" in ln]
    assert len(counts) == audits and all("0 violation(s)" in ln for ln in counts), counts


def test_payload_census_records_one_fixture_and_diffs_it_against_itself(tmp_path):
    out = tmp_path / "census.json"
    _run(["scripts/payload_census.py", "write", str(out), "--grid", "41", "--only", "exA"])
    kinds = json.loads(out.read_text())
    assert list(kinds["classify"]) == list(kinds["scan"]) == ["exA"]
    assert [e["level"] for e in kinds["scan"]["exA"]["points"]].count("SecondOrderKT") == 2
    assert kinds["relation"] and kinds["relation"].keys() == kinds["saddle"].keys()
    parse = kinds["parse"]  # exA's file, then 2,000 expression strings and 500 problem texts
    assert parse["exA"]["vars"] == ["x1", "x2"] and len(parse) == 2501
    assert {"vars", "repr", "error"} <= {k for rec in parse.values() for k in rec}
    lines = _run(["scripts/payload_census.py", "diff", str(out), str(out)]).splitlines()
    assert lines and all(" 0 of " in ln for ln in lines), lines
    assert any(ln.startswith("relation.domination_witness:") for ln in lines)
    assert any(ln.startswith("scan: 0 of 1 ") for ln in lines)
    assert any(ln.startswith("parse: 0 of 2501 ") for ln in lines)
