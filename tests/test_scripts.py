"""The example scripts run end to end at tiny sizes."""
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_bench(capsys):
    argv = ["--cases", "1", "3", "--n", "40", "--replicates", "2",
            "--iters", "30", "--burnin", "10", "--seed", "3"]
    assert load("run_bench").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()  # a comment, a header, one row per case
    assert [line.split()[0] for line in lines[2:]] == ["1", "3"]


@pytest.mark.parametrize("n", [40, 122])
def test_smooth_demo(n, capsys):
    """n = 122 is not a multiple of 4: the four segments differ in length."""
    assert load("smooth_demo").main(["--n", str(n), "--iters", "60", "--burnin", "20"]) == 0
    out = capsys.readouterr().out
    assert "true jumps after indices" in out
    assert "blocks:" in out


def result(attempted, failed, **values):
    return {"attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": ""} for name, v in values.items()}}


def test_ab_pairs_summary():
    metrics = [
        {"name": "job_wall_s", "better": "lower", "bound": 0.25},
        {"name": "sweeps_per_s", "better": "higher", "bound": 0.25},
    ]
    parent = [result(10, 0, job_wall_s=w, sweeps_per_s=s)
              for w, s in [(1.0, 100.0), (1.2, 110.0), (1.1, 90.0), (1.3, 105.0), (0.9, 95.0)]]
    change = [result(12, 1, job_wall_s=w, sweeps_per_s=s)
              for w, s in [(1.5, 200.0), (1.4, 190.0), (1.6, 80.0), (1.2, 210.0), (1.45, 205.0)]]
    ab = load("ab_pairs")
    summary = ab.summarize_pairs(parent, change, metrics)
    wall, speed = summary["metrics"]
    assert wall["parent"] == [1.0, 1.1, 1.2]
    assert wall["change"] == [1.4, 1.45, 1.5]
    assert wall["won"] == 1  # only pair 3: 1.2 < 1.3
    assert wall["beyond_parent_spread"]  # 0.35 apart against a spread of 0.2
    assert wall["worse_than_bound"]  # 1.45 is 32% above 1.1
    assert speed["parent"] == [95.0, 100.0, 105.0]
    assert speed["change"] == [190.0, 200.0, 205.0]
    assert (speed["won"], speed["pairs"]) == (4, 5)
    assert speed["beyond_parent_spread"]
    assert not speed["worse_than_bound"]
    assert summary["totals"] == {"parent": {"attempted": 50, "failed": 0},
                                 "change": {"attempted": 60, "failed": 5}}
    text = ab.format_summary(summary)
    assert "won 4/5" in text and "worse than bound: YES" in text
    assert text.splitlines()[-1] == "jobs attempted parent 50 change 60; failed parent 0 change 5"
