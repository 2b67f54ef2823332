#!/usr/bin/env python3
"""Detection-power sweep over the spatial gravity generator.

For each distance exponent beta, grows a labeled gravity graph with
heterogeneous per-group stub counts, runs the full detection chain, and
reports how many synthetic countries are flagged.  beta = 0 with uniform
stubs is the no-signal control; power should rise steeply with beta once
stub heterogeneity is on.
"""

import argparse

import numpy as np

from toposig import nullmodel as nm
from toposig.features import compute_all_features
from toposig.graph import country_groups
from toposig.synth import gen_spatial_gravity, make_gravity_params


def run_one(n, groups, beta, stubs, seed, sizes, sets):
    params = make_gravity_params(n=n, groups=groups, beta=beta, stubs=stubs, seed=seed)
    graph, labels = gen_spatial_gravity(params)
    config = nm.NullSamplingConfig(set_sizes=sizes, sets_per_size=sets, seed=seed)
    groups = {"country": country_groups(graph, labels)}
    return nm.analyze(compute_all_features(graph), groups, config).results


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=20_000)
    ap.add_argument("--groups", type=int, default=20)
    ap.add_argument("--betas", type=float, nargs="+", default=[0.0, 1.0, 2.0, 4.0])
    ap.add_argument("--stubs", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    ap.add_argument("--homogeneous", action="store_true",
                    help="uniform stub counts (kills the degree signal)")
    ap.add_argument("--sets", type=int, default=nm.DEFAULT_SETS_PER_SIZE)
    ap.add_argument("--sizes", type=int, nargs="+", default=nm.DEFAULT_SET_SIZES)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    stubs = (3,) if args.homogeneous else tuple(args.stubs)
    print(f"n={args.n} groups={args.groups} stubs={stubs}\n")
    print(" beta   flagged   z < -2   z > +2    min z    max z")
    for beta in args.betas:
        results = run_one(
            args.n, args.groups, beta, stubs, args.seed, tuple(args.sizes), args.sets
        )
        zs = np.array([r.z for r in results])
        flagged = int(np.sum(np.abs(zs) > 2))
        print(
            f"{beta:5.1f}   {flagged:3d}/{len(zs):<3d}   {np.sum(zs < -2):4d}"
            f"    {np.sum(zs > 2):4d}   {zs.min():+7.2f}  {zs.max():+7.2f}"
        )


if __name__ == "__main__":
    main()
