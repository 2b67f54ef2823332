"""Correctness gates for one benchmark run, and the CLI-vs-library z check."""

from __future__ import annotations

import math
from pathlib import Path

from workloads import Workload

# Criterion 4 asks for power >= 0.8 on the planted country groups.  One run is
# one draw of 20 groups, and over seeds 0-29 the count ranges 12-19 with mean
# 16.0, so "16 of 20" fails a third of the seeds on correct code.  The gate
# fails a run only when its count would be rarer than FALSE_ALARM under power
# 0.8 (binomial over the groups).
PLANTED_POWER = 0.8
FALSE_ALARM = 0.005
Z_MAXDIFF = 1e-6


def power_floor(groups: int) -> int:
    """Largest k with P(Binomial(groups, PLANTED_POWER) < k) <= FALSE_ALARM."""
    p = PLANTED_POWER
    below = 0.0
    for k in range(groups + 1):
        below += math.comb(groups, k) * p**k * (1 - p) ** (groups - k)
        if below > FALSE_ALARM:
            return k
    return groups


def read_manifest(out: Path) -> dict[str, dict[str, str]]:
    """Stage -> ``key=value`` fields of its info column (last line per stage wins)."""
    stages: dict[str, dict[str, str]] = {}
    for line in (out / "run_manifest.tsv").read_text(encoding="utf-8").splitlines():
        cols = line.split("\t")
        stages[cols[0]] = dict(tok.split("=", 1) for tok in cols[6].split() if "=" in tok)
    return stages


def read_results(out: Path) -> list[tuple[str, str, int, float, bool]]:
    """(level, group, n_nodes, z, significant) rows of ``results.tsv``."""
    rows = []
    for line in (out / "results.tsv").read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        level, group, n, _mu, z, _p, sig = line.split("\t")
        rows.append((level, group, int(n), float(z), sig == "1"))
    return rows


def check_outputs(workload: Workload, out: Path) -> list[str]:
    """Failures of the per-run gate; an empty list means the run is correct."""
    failures = []
    manifest = read_manifest(out)
    if "ingest" not in manifest or "report" not in manifest:
        return [f"manifest lacks stages: has {sorted(manifest)}"]
    for stage in ("synth", "ingest") if "synth" in manifest else ("ingest",):
        for key, want in workload.expected.items():
            if stage == "synth" and key not in ("n", "m"):
                continue
            got = manifest[stage].get(key)
            if got != str(want):
                failures.append(f"{stage} {key}={got}, generator planted {want}")
    rows = read_results(out)
    if len(rows) != workload.groups:
        failures.append(f"results.tsv has {len(rows)} groups, expected {workload.groups}")
    if not all(math.isfinite(r[3]) for r in rows):
        failures.append("results.tsv holds a non-finite z")
    if workload.planted_power:
        country = [r for r in rows if r[0] == "country"]
        hits = sum(r[4] for r in country)
        if hits < power_floor(len(country)):
            failures.append(f"only {hits} of {len(country)} planted country groups significant")
    return failures


def library_zscores(out: Path, seed: int, subset: tuple[str, ...] | None) -> dict[str, float]:
    """z per ``level:group`` through the library path on the run's own artifacts.

    This is the acceptance module's ``group_zscores``: features, embedding and
    null are fit on full float64 values, not on the rounded ``features.tsv``.
    """
    from toposig import embedding as em
    from toposig import graph as gstore
    from toposig import nullmodel as nm
    from toposig.cli import DEFAULT_SET_SIZES
    from toposig.features import compute_all_features

    with open(out / "edges.tsv", encoding="utf-8") as f:
        edge_list = gstore.parse_edges_tsv(f)
    with open(out / "nodes.tsv", encoding="utf-8") as f:
        gstore.parse_nodes_tsv(f, edge_list)
    graph = gstore.build_graph(edge_list)
    with open(out / "labels.tsv", encoding="utf-8") as f:
        labels = gstore.parse_geo(f)
    table = compute_all_features(graph)
    points = em.transform_all(em.fit_embedding(table), table)
    config = nm.NullSamplingConfig(set_sizes=DEFAULT_SET_SIZES, sets_per_size=100, seed=seed)
    null = nm.fit_null_scaling(nm.sample_null(points, config))
    levels = sorted({r[0] for r in read_results(out)})
    zs = {}
    for level in levels:
        groups = (gstore.country_groups if level == "country" else gstore.region_groups)(
            graph, labels
        )
        if subset is not None:
            groups = {k: v for k, v in groups.items() if f"{level}:{k}" in subset}
        means, _ = nm.group_mean_distance(points, groups, seed=seed)
        for key, result in means.items():
            zs[f"{level}:{key}"] = nm.z_score(null, key, level, len(groups[key]), result.mean).z
    return zs


def z_cli_lib_maxdiff(workload: Workload, out: Path, seed: int) -> float:
    """Largest |z_cli - z_lib| over the workload's check groups (all groups if none)."""
    lib = library_zscores(out, seed, workload.check_groups)
    cli = {f"{r[0]}:{r[1]}": r[3] for r in read_results(out)}
    wanted = workload.check_groups or tuple(cli)
    missing = [k for k in wanted if k not in lib or k not in cli]
    if missing:
        raise ValueError(f"library check lacks groups {missing}")
    return max(abs(cli[k] - lib[k]) for k in wanted)
