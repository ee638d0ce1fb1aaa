#!/usr/bin/env python3
"""Change-point demo: smooth a noisy piecewise-constant signal.

Generates a three-jump signal, runs the fusion sampler with an identity
design, and prints the detected boundaries with their posterior
probabilities plus the fitted level of each block.
"""
import argparse
import sys

import numpy as np

from bayesfuse import Dataset, HyperParams, SamplerConfig, run_chain, summarize
from bayesfuse.simbench import fused_estimate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=120)
    parser.add_argument("--noise", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iters", type=int, default=6_000)
    parser.add_argument("--burnin", type=int, default=1_000)
    args = parser.parse_args(argv)

    # Four segments of (nearly) equal length n/4.
    level = np.array([0.0, 2.0, 0.0, 2.0])[np.arange(args.n) * 4 // args.n]
    rng = np.random.default_rng(args.seed)
    y = level + args.noise * rng.standard_normal(args.n)

    data = Dataset(y=y, X=np.eye(args.n))
    config = SamplerConfig(total_iterations=args.iters, burn_in=args.burnin, seed=args.seed)
    chain = run_chain(data, HyperParams(g=float(args.n)), config)
    summary = summarize(chain)
    fitted = fused_estimate(summary.beta_mean, summary.partition_est)

    true_jumps = [j for j in range(args.n - 1) if level[j] != level[j + 1]]
    print(f"true jumps after indices (1-based): {[j + 1 for j in true_jumps]}")
    declared = [stop for _, stop in summary.partition_est[:-1]]
    print(f"declared boundaries after indices:  {declared}")
    print("\nblocks:")
    for start, stop in summary.partition_est:
        print(f"  [{start + 1:>3}, {stop:>3}]  level={fitted[start]: .3f}")
    print("\nboundary probabilities above 0.05:")
    for j, prob in enumerate(summary.delta_prob):
        if prob > 0.05:
            print(f"  after index {j + 1:>3}: {prob:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
