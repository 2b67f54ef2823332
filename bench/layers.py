"""Per-layer metrics read from the spans of one traced in-process run.

Layers are the ``toposig`` modules.  Times are span self times (children
excluded); counts come from the observers below, which read the arguments and
return values of the traced calls.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any

from tracer import Tracer

STAGES = ("synth", "ingest", "features", "embed", "null", "test", "report")
MB = 1 << 20


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _parse(args: tuple, kwargs: dict, edge_list: Any) -> dict:
    stream = _arg(args, kwargs, 0, "stream")
    path = getattr(stream, "name", None)
    return {
        "bytes": os.path.getsize(path) if isinstance(path, str) else 0,
        "raw_pairs": edge_list.raw_pair_count,
        "dup_dropped": edge_list.duplicate_pairs_dropped,
        "self_dropped": edge_list.self_pairs_dropped,
        "malformed": edge_list.malformed_lines,
    }


def _pairs(args: tuple, kwargs: dict, result: Any) -> dict:
    distances, exact = result
    return {"exact": bool(exact), "pairs": len(distances)}


def _sample_null(args: tuple, kwargs: dict, result: Any) -> dict:
    config = _arg(args, kwargs, 1, "config")
    return {"sets": len(config.set_sizes) * config.sets_per_size, "largest": max(config.set_sizes)}


def _group_mean(args: tuple, kwargs: dict, result: Any) -> dict:
    membership = _arg(args, kwargs, 1, "membership")
    means, _skipped = result
    return {
        "sizes": [len(membership[key]) for key in means],
        "sampled": sum(not r.exact for r in means.values()),
    }


OBSERVERS = {
    "graph.parse_edges_tsv": _parse,
    "graph.parse_links": _parse,
    "graph.build_graph": lambda a, k, g: {"n": g.n, "m": g.m},
    "features.read_features_tsv": lambda a, k, r: {"rows": len(r[0])},
    "embedding.pair_sample_distances": _pairs,
    "nullmodel.sample_null": _sample_null,
    "nullmodel.group_mean_distance": _group_mean,
    "nullmodel.fit_null_scaling": lambda a, k, r: {"alpha": r.alpha},
    "nullmodel.summarize": lambda a, k, r: {"sig_frac": r.n_significant / r.n_groups},
    "synth.gen_spatial_gravity": lambda a, k, r: {"m": r[0].m},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _digest_bytes(out: Path, inputs: Path) -> int:
    """Bytes the manifest hashed: each ``file:digest`` it lists, at that file's size.

    Computed from the manifest lines and the final file sizes, not measured.
    Inputs are looked up in the run directory first, then in ``inputs``."""
    total = 0
    for line in (out / "run_manifest.tsv").read_text(encoding="utf-8").splitlines():
        cols = line.split("\t")
        for item in f"{cols[4]};{cols[5]}".split(";"):
            name = item.rpartition(":")[0]
            path = next((d / name for d in (out, inputs) if name and (d / name).is_file()), None)
            total += path.stat().st_size if path else 0
    return total


def layer_metrics(
    tr: Tracer, out: Path, inputs: Path, traced_wall_s: float
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    m: dict[str, tuple[float, str]] = {}
    stage_spans = tr.named("cli.run_stage")
    for stage in STAGES:
        spans = [s for s in stage_spans if s.stage == stage]
        m[f"cli.stage.{stage}_s"] = (sum(s.duration for s in spans), "s")
        m[f"cli.stage.{stage}.self_s"] = (sum(s.self_s for s in spans), "s")
    m["cli.digest_mb"] = (_digest_bytes(out, inputs) / MB, "MB_computed")
    artifacts = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    m["cli.artifact_mb"] = (artifacts / MB, "MB")

    parses = tr.named("graph.parse_edges_tsv") + tr.named("graph.parse_links")
    parse_s = sum(s.self_s for s in parses)
    m["graph.parse_edges_s"] = (tr.self_s("graph.parse_edges_tsv"), "s")
    m["graph.parse_links_s"] = (tr.self_s("graph.parse_links"), "s")
    m["graph.parse_nodes_s"] = (tr.self_s("graph.parse_nodes_tsv"), "s")
    m["graph.parse_geo_s"] = (tr.self_s("graph.parse_geo"), "s")
    m["graph.build_s"] = (tr.self_s("graph.build_graph"), "s")
    m["graph.write_s"] = (
        tr.self_s("graph.write_edges_tsv", "graph.write_nodes_tsv", "graph.write_geo_tsv"), "s"
    )
    m["graph.parse_calls"] = (len(parses), "count")
    m["graph.input_mb_per_s"] = (_ratio(sum(s.info["bytes"] for s in parses) / MB, parse_s), "MB/s")
    ingest_parse = [s for s in parses if s.stage == "ingest"]
    ingest_build = [s for s in tr.named("graph.build_graph") if s.stage == "ingest"]
    info = ingest_parse[0].info if ingest_parse else {}
    built = ingest_build[0].info if ingest_build else {}
    m["graph.n"] = (built.get("n", 0), "count")
    m["graph.m"] = (built.get("m", 0), "count")
    for key in ("raw_pairs", "dup_dropped", "self_dropped", "malformed"):
        m[f"graph.{key}"] = (info.get(key, 0), "count")
    m["graph.pair_yield"] = (_ratio(built.get("m", 0), info.get("raw_pairs", 0)), "ratio")

    reads = tr.named("features.read_features_tsv")
    m["features.compute_s"] = (tr.self_s("features.compute_all_features"), "s")
    m["features.write_s"] = (tr.self_s("features.write_features_tsv"), "s")
    m["features.read_s"] = (tr.self_s("features.read_features_tsv"), "s")
    m["features.read_calls"] = (len(reads), "count")
    m["features.rows_read"] = (sum(s.info["rows"] for s in reads), "count")

    pairs = tr.named("embedding.pair_sample_distances")
    exact = [s for s in pairs if s.info["exact"]]
    sampled = [s for s in pairs if not s.info["exact"]]
    sampled_s = sum(s.self_s for s in sampled)
    pairs_sampled = sum(s.info["pairs"] for s in sampled)
    m["embedding.fit_s"] = (tr.self_s("embedding.fit_embedding"), "s")
    m["embedding.transform_s"] = (tr.self_s("embedding.transform_all"), "s")
    m["embedding.pair_exact_s"] = (sum(s.self_s for s in exact), "s")
    m["embedding.pair_sampled_s"] = (sampled_s, "s")
    m["embedding.exact_calls"] = (len(exact), "count")
    m["embedding.sampled_calls"] = (len(sampled), "count")
    m["embedding.pairs_exact"] = (sum(s.info["pairs"] for s in exact), "count")
    m["embedding.pairs_sampled"] = (pairs_sampled, "count")
    m["embedding.sampled_pairs_per_s"] = (_ratio(pairs_sampled, sampled_s), "1/s")

    nulls = tr.named("nullmodel.sample_null")
    groups = tr.named("nullmodel.group_mean_distance")
    sizes = [n for s in groups for n in s.info["sizes"]]
    # sigma(N) is fitted up to the largest null set size; beyond it, z extrapolates
    null_max = max((s.info["largest"] for s in nulls), default=0)
    m["nullmodel.sample_null_s"] = (tr.self_s("nullmodel.sample_null"), "s")
    m["nullmodel.group_mean_s"] = (tr.self_s("nullmodel.group_mean_distance"), "s")
    m["nullmodel.fit_s"] = (tr.self_s("nullmodel.fit_null_scaling"), "s")
    m["nullmodel.null_sets"] = (sum(s.info["sets"] for s in nulls), "count")
    m["nullmodel.groups"] = (len(sizes), "count")
    m["nullmodel.groups_sampled"] = (sum(s.info["sampled"] for s in groups), "count")
    m["nullmodel.groups_extrapolated"] = (sum(n > null_max for n in sizes), "count")
    fits = tr.named("nullmodel.fit_null_scaling")
    m["nullmodel.alpha"] = (fits[-1].info["alpha"] if fits else 0.0, "ratio")
    summaries = tr.named("nullmodel.summarize")
    m["nullmodel.sig_frac"] = (summaries[-1].info["sig_frac"] if summaries else 0.0, "ratio")

    gravity = tr.named("synth.gen_spatial_gravity")
    m["synth.gravity_s"] = (tr.self_s("synth.gen_spatial_gravity"), "s")
    m["synth.edges_per_s"] = (
        _ratio(sum(s.info["m"] for s in gravity), sum(s.duration for s in gravity)), "1/s"
    )

    m["trace.overhead_s"] = (tr.overhead_s, "s")
    m["trace.stage_cover"] = (_ratio(sum(s.duration for s in stage_spans), traced_wall_s), "ratio")
    return m
