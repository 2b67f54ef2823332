"""Tests of the benchmark's tracer and workload generators.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from layers import OBSERVERS, layer_metrics  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402
import workloads  # noqa: E402

from toposig import cli  # noqa: E402
from toposig import features  # noqa: E402
from toposig import graph as gstore  # noqa: E402

TINY_LINKS = """# tiny links file
link L1: N1:10.0.0.1 N2 N3
link L2: N2 N2
link L3: N1 N2
link L4 N5 N6
"""


def _tiny_traced_run(tmp_path: Path) -> tuple[Tracer, Path, float]:
    out = tmp_path / "run"
    links = tmp_path / "tiny.links"
    links.write_text(TINY_LINKS)
    commands = [
        ["synth", "--model", "gravity", "--n", "1500", "--groups", "6", "--seed", "3",
         "--out", str(out)],
        ["all", "--edges", str(out / "edges.tsv"), "--geo", str(out / "labels.tsv"),
         "--out", str(out), "--seed", "3", "--sizes", "10,20,50", "--sets", "20",
         "--level", "both"],
        ["ingest", "--links", str(links), "--out", str(tmp_path / "links_run")],
    ]
    with Tracer(OBSERVERS) as tr, contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        for cmd in commands:
            assert cli.main(cmd) == 0
        wall = time.perf_counter() - start
    return tr, out, wall


def test_every_listed_span_fires_and_stages_cover_the_run(tmp_path):
    tr, out, wall = _tiny_traced_run(tmp_path)
    assert tr.absent == []
    assert tr.fired() == {f"{mod}.{name}" for mod, name in TRACED}
    metrics = layer_metrics(tr, out, tmp_path, wall)
    assert metrics["trace.stage_cover"][0] >= 0.95
    assert metrics["graph.parse_calls"][0] == 3  # ingest, features re-parse, links ingest
    assert metrics["features.read_calls"][0] == 3
    assert metrics["graph.n"][0] == 1500
    assert metrics["nullmodel.null_sets"][0] == 60
    assert metrics["embedding.sampled_calls"][0] == 0
    assert metrics["synth.gravity_s"][0] > 0
    links_parse = tr.named("graph.parse_links")[0].info
    assert links_parse["malformed"] == 1 and links_parse["self_dropped"] == 1
    assert links_parse["raw_pairs"] == 4 and links_parse["dup_dropped"] == 1


def test_import_sites_are_patched_and_restored():
    originals = (cli.compute_all_features, cli.read_features_tsv, gstore.build_graph)
    with Tracer() as tr:
        assert cli.compute_all_features is features.compute_all_features
        assert cli.compute_all_features is not originals[0]
        assert cli.read_features_tsv is features.read_features_tsv
        assert gstore.build_graph is not originals[2]
        from toposig import nullmodel, embedding

        assert nullmodel.pair_sample_distances is embedding.pair_sample_distances
        assert tr.absent == []
    assert (cli.compute_all_features, cli.read_features_tsv, gstore.build_graph) == originals


def test_missing_function_is_reported_absent():
    traced = TRACED + (("features", "no_such_function"), ("gone_module", "f"))
    with Tracer(traced=traced) as tr:
        pass
    assert "features.no_such_function" in tr.absent
    assert "gone_module.f" in tr.absent


def test_layer_metrics_match_benchmark_json(tmp_path):
    tr, out, wall = _tiny_traced_run(tmp_path)
    metrics = layer_metrics(tr, out, tmp_path, wall)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed.pop("check.z_cli_lib_maxdiff") == "z"
    assert listed == {name: unit for name, (_value, unit) in metrics.items()}


def test_power_floor_is_the_binomial_tail():
    # Binomial(20, 0.8): P(X <= 10) = 0.0026 <= 0.005 < P(X <= 11) = 0.0100
    assert checks.power_floor(20) == 11


def test_zipf_sizes_are_exact_and_decreasing():
    sizes = workloads.zipf_sizes(50_000, 150)
    assert sizes.sum() == 50_000 and np.all(np.diff(sizes) <= 0) and sizes.min() >= 2


def test_links_counters_match_the_parser(tmp_path):
    wl = workloads.links(tmp_path, 5, 3000, countries=10)
    with open(tmp_path / "input.links", encoding="utf-8") as f:
        edge_list = gstore.parse_links(f)
    graph = gstore.build_graph(edge_list)
    got = {
        "n": graph.n,
        "m": graph.m,
        "self_dropped": edge_list.self_pairs_dropped,
        "dup_dropped": edge_list.duplicate_pairs_dropped,
        "malformed": edge_list.malformed_lines,
    }
    assert got == wl.expected
    assert edge_list.raw_pair_count == wl.info["raw_pairs"]
