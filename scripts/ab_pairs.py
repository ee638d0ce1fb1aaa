#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

Example:
    python scripts/ab_pairs.py ../parent . --workload select_p60 --pairs 10 --seed 500

Pair i runs ``perfbench/run.py --trace 0 --seed S+i`` once in each
checkout, the parent first on even i and the change first on odd i, so a
drift in machine speed falls on both sides alike. For each end-to-end
metric of the change's ``BENCHMARK.json`` it prints each side's median with
its quartiles, the pairs the change won (by the metric's ``better``),
whether the medians lie further apart than the parent's quartile spread,
and whether the change is worse than the parent by more than the metric's
bound; then the attempted and failed job totals.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object (last stdout line) of one benchmark run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarize_pairs(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """Per-metric comparison of paired result objects, plus job totals.

    ``parent[i]`` and ``change[i]`` are the result objects of pair i;
    ``metrics`` are the ``end_to_end`` entries of ``BENCHMARK.json``.
    """
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = np.array([r["metrics"][name]["value"] for r in parent])
        b = np.array([r["metrics"][name]["value"] for r in change])
        qa, qb = np.percentile(a, [25, 50, 75]), np.percentile(b, [25, 50, 75])
        won = int(((b < a) if lower else (b > a)).sum())
        loss = (qb[1] - qa[1]) / qa[1] if lower else (qa[1] - qb[1]) / qa[1]
        rows.append({
            "name": name,
            "parent": qa.tolist(),
            "change": qb.tolist(),
            "won": won,
            "pairs": len(a),
            "beyond_parent_spread": bool(abs(qb[1] - qa[1]) > qa[2] - qa[0]),
            "worse_than_bound": bool(loss > m["bound"]),
        })
    totals = {side: {key: sum(r[key] for r in results) for key in ("attempted", "failed")}
              for side, results in (("parent", parent), ("change", change))}
    return {"metrics": rows, "totals": totals}


def format_summary(summary: dict) -> str:
    def q(values):
        return f"{values[1]:.4g} [{values[0]:.4g}, {values[2]:.4g}]"

    lines = []
    for row in summary["metrics"]:
        lines.append(
            f"{row['name']:<14} parent {q(row['parent']):<28} change {q(row['change']):<28} "
            f"won {row['won']}/{row['pairs']}  beyond parent spread: "
            f"{'yes' if row['beyond_parent_spread'] else 'no'}  worse than bound: "
            f"{'YES' if row['worse_than_bound'] else 'no'}"
        )
    t = summary["totals"]
    lines.append(f"jobs attempted parent {t['parent']['attempted']} change {t['change']['attempted']}; "
                 f"failed parent {t['parent']['failed']} change {t['change']['failed']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        sides = [(args.parent, parent), (args.change, change)]
        for checkout, results in sides if i % 2 == 0 else sides[::-1]:
            results.append(run_once(checkout, args.workload, seed, args.seconds))
        print(f"pair {i} seed {seed}: " + "  ".join(
            f"{m['name']} {parent[-1]['metrics'][m['name']]['value']:.4g} -> "
            f"{change[-1]['metrics'][m['name']]['value']:.4g}" for m in metrics), flush=True)
    print(format_summary(summarize_pairs(parent, change, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
