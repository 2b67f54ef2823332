#!/usr/bin/env python3
"""Null-model calibration experiment on an unstructured random graph.

Generates an Erdos-Renyi graph, attaches structure-blind random label
groups, runs the feature -> whitening -> null -> z-score chain, and prints
the per-size null samples with the fitted scaling law plus the resulting
group z-score distribution.  On a calibrated pipeline the |z| > 2 fraction
should sit near 0.05.
"""

import argparse

import numpy as np

from toposig import nullmodel as nm
from toposig.features import compute_all_features
from toposig.graph import country_groups
from toposig.synth import gen_er, random_group_labels


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=20_000)
    ap.add_argument("--mean-degree", type=float, default=6.0)
    ap.add_argument("--groups", type=int, default=50)
    ap.add_argument("--group-sizes", type=int, nargs=2, default=(50, 500))
    ap.add_argument("--sets", type=int, default=nm.DEFAULT_SETS_PER_SIZE)
    ap.add_argument("--sizes", type=int, nargs="+", default=nm.DEFAULT_SET_SIZES)
    ap.add_argument("--seed", type=int, default=4)
    args = ap.parse_args()

    graph = gen_er(args.n, args.mean_degree / (args.n - 1), seed=args.seed)
    print(f"graph: n={graph.n} m={graph.m} mean degree {2 * graph.m / graph.n:.2f}")

    labels = random_group_labels(graph, args.groups, tuple(args.group_sizes), seed=args.seed)
    config = nm.NullSamplingConfig(tuple(args.sizes), args.sets, seed=args.seed)
    groups = {"country": country_groups(graph, labels)}
    run = nm.analyze(compute_all_features(graph), groups, config)
    model, null = run.model, run.null
    print(f"embedding: retained {model.retained}, eigenvalues {np.round(model.eigenvalues, 3)}")
    print("\n   N      mean        std     fitted std")
    for row in run.samples.rows:
        print(
            f"{row.set_size:6d}  {row.mean:9.5f}  {row.std:9.5f}  {null.sigma(row.set_size):9.5f}"
        )
    print(
        f"\nfit: mu_r={null.mu_r:.6f}  sigma(N) = {null.a:.4f} * N^-{null.alpha:.4f}"
        f"  (log residual {null.fit_residual:.4f})"
    )

    zs = np.array([r.z for r in run.results])
    frac = np.mean(np.abs(zs) > 2)
    print(f"\n{len(zs)} random groups: mean z {zs.mean():+.3f}, std {zs.std(ddof=1):.3f},"
          f" fraction |z|>2 = {frac:.3f}")


if __name__ == "__main__":
    main()
