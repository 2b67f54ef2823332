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

from toposig import embedding as em
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

    features = compute_all_features(graph)
    model = em.fit_embedding(features)
    points = em.transform_all(model, features)
    print(f"embedding: retained {model.retained}, eigenvalues {np.round(model.eigenvalues, 3)}")

    config = nm.NullSamplingConfig(
        set_sizes=tuple(args.sizes), sets_per_size=args.sets, seed=args.seed
    )
    samples = nm.sample_null(points, config)
    null = nm.fit_null_scaling(samples)
    print("\n   N      mean        std     fitted std")
    for row in samples.rows:
        print(
            f"{row.set_size:6d}  {row.mean:9.5f}  {row.std:9.5f}  {null.sigma(row.set_size):9.5f}"
        )
    print(
        f"\nfit: mu_r={null.mu_r:.6f}  sigma(N) = {null.a:.4f} * N^-{null.alpha:.4f}"
        f"  (log residual {null.fit_residual:.4f})"
    )

    labels = random_group_labels(graph, args.groups, tuple(args.group_sizes), seed=args.seed)
    groups = {"country": country_groups(graph, labels)}
    results, _, _ = nm.score_groups(points, null, groups, seed=args.seed)
    zs = np.array([r.z for r in results])
    frac = np.mean(np.abs(zs) > 2)
    print(f"\n{len(zs)} random groups: mean z {zs.mean():+.3f}, std {zs.std(ddof=1):.3f},"
          f" fraction |z|>2 = {frac:.3f}")


if __name__ == "__main__":
    main()
