#!/usr/bin/env python3
"""Compare the multi-criteria pipeline against a global-mean baseline.

Runs the full pipeline (impute, optional PCA centering, Tucker
factorization, item-item similarity, weighted aggregation) on planted
low-rank tensors at several noise levels and prints one row per setting.

Usage: python3 scripts/synthetic_mc_experiment.py [--seed S]
"""

import argparse

from mccf.engine import NeighborhoodSpec
from mccf.evaluation import McBenchmarkConfig, global_mean_baseline, run_mc_benchmark
from mccf.synth import SyntheticTensorSpec, generate_tensor

NOISE_LEVELS = (0.0, 0.1, 0.3, 0.5)
# similarity space -> the measure that picks it
SPACE_SIMS = {"latent": "latent", "reconstructed": "euclidean"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--train-fraction", type=float, default=0.8)
    args = ap.parse_args(argv)

    print(f"{'noise':>6} {'space':>13} {'baseline':>9} {'mae':>7} "
          f"{'rmse':>7} {'improvement':>12}")
    for noise in NOISE_LEVELS:
        spec = SyntheticTensorSpec(n_users=60, n_items=24, n_groups=4,
                                   n_criteria=3, noise_std=noise,
                                   seed=args.seed)
        tensor = generate_tensor(spec)
        baseline = global_mean_baseline(tensor, args.train_fraction, args.seed)
        for space, sim in SPACE_SIMS.items():
            report = run_mc_benchmark(tensor, McBenchmarkConfig(
                ranks=spec.ranks, train_fraction=args.train_fraction,
                seed=args.seed, sim=sim,
                neighborhood=NeighborhoodSpec(max_neighbors=3)))
            gain = (baseline - report.mae) / baseline
            print(f"{noise:>6.2f} {space:>13} {baseline:>9.4f} "
                  f"{report.mae:>7.4f} {report.rmse:>7.4f} {gain:>11.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
