"""The benchmark's tracer wraps package functions by name.

``perfbench/launch.py`` looks up sampler and kernel functions where the
CLI and the sampler find them; renaming one breaks only the benchmark.
These tests run the launcher in trace mode on a tiny table so that such a
rename fails the test suite too.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import write_regression_csv

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = ROOT / "perfbench" / "launch.py"


@pytest.mark.parametrize("command,spans", [
    ("fit", {"sampler.draws", "sampler.posterior"}),
    ("select", {"baseline.factors"}),
])
def test_traced_run(command, spans, tmp_path):
    table = tmp_path / "d.csv"
    write_regression_csv(table)
    record = tmp_path / "record.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(LAUNCH), str(record), "trace", "--",
         command, str(table), "--response", "y", "--iters", "200", "--burnin", "50",
         "--out", str(tmp_path / "out.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(record.read_text())
    assert spans <= set(rec["spans"])
    check = rec["evidence_check"]
    assert check["samples"] > 0
    assert check["max_rel_err"] <= 1e-10
