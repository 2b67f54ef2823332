"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The last criterion is an
optional integration tier that only runs when real router-topology data is
supplied via TOPOSIG_ITDK_LINKS / TOPOSIG_ITDK_GEO.
"""

import io
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from toposig import cli
from toposig import embedding as em
from toposig import graph as gstore
from toposig import nullmodel as nm
from toposig import synth
from toposig.features import compute_all_features
from toposig.graph import country_groups, region_groups
from toposig.synth import gen_er, make_gravity_params, gen_spatial_gravity, random_group_labels

from test_features import naive_features

FIXTURE_DIR = Path(__file__).parent / "data"
SET_SIZES = (10, 20, 50, 100, 200, 500)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def group_zscores(graph, labels, seed, level="country"):
    """features -> embedding -> null fit -> per-group z, all on one graph."""
    config = nm.NullSamplingConfig(set_sizes=SET_SIZES, sets_per_size=100, seed=seed)
    groups = country_groups(graph, labels) if level == "country" else region_groups(graph, labels)
    results = nm.analyze(compute_all_features(graph), {level: groups}, config).results
    return np.array([r.z for r in results])


# ---------------------------------------------------------------------------
# 1. feature-oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_feature_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 51))
        p = float(rng.uniform(0.05, 0.5))
        graph = gen_er(n, p, seed=seed)
        src, dst = graph.edge_id_pairs()
        pairs = [(graph.names[a], graph.names[b]) for a, b in zip(src, dst)]
        oracle = naive_features(pairs, list(graph.names))
        features = compute_all_features(graph)
        for node, name in enumerate(graph.names):
            got = features[node]
            want = np.array(oracle[name])
            err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
            worst = max(worst, float(err.max()))
            assert np.allclose(got, want, rtol=1e-10, atol=1e-10)
    elapsed = time.monotonic() - start
    report(
        1,
        "feature-oracle equivalence",
        worst <= 1e-10 and elapsed < 10.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Mahalanobis equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_mahalanobis_equivalence():
    start = time.monotonic()
    worst = 0.0
    pairs_checked = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        a = rng.normal(size=(4, 4))
        cov = a @ a.T + 0.05 * np.eye(4)
        x = rng.multivariate_normal(rng.normal(size=4), cov, size=1000)
        model = em.fit_embedding(x)
        assert model.retained == 4
        inv = np.linalg.inv(model.covariance)
        idx = rng.integers(0, 1000, size=(200, 2))
        y = em.transform_all(model, x)
        for i, j in idx:
            got = float(np.linalg.norm(y[i] - y[j]))
            diff = x[i] - x[j]
            want = math.sqrt(float(diff @ inv @ diff))
            if want > 0:
                worst = max(worst, abs(got - want) / want)
            pairs_checked += 1
    elapsed = time.monotonic() - start
    report(
        2,
        "Mahalanobis equivalence",
        worst <= 1e-8 and pairs_checked == 10_000 and elapsed < 10.0,
        f"{pairs_checked} pairs, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. null calibration on an unstructured graph
# ---------------------------------------------------------------------------

def test_criterion_3_null_calibration():
    start = time.monotonic()
    seed = 4
    n = 20_000
    graph = gen_er(n, 6.0 / (n - 1), seed=seed)
    labels = random_group_labels(graph, 50, (50, 500), seed=seed)
    zs = group_zscores(graph, labels, seed=seed)
    frac = float(np.mean(np.abs(zs) > 2))
    mean_z = float(zs.mean())
    elapsed = time.monotonic() - start
    report(
        3,
        "null calibration",
        len(zs) == 50 and abs(mean_z) <= 0.3 and 0.02 <= frac <= 0.09 and elapsed < 300,
        f"mean z {mean_z:+.3f}, frac |z|>2 {frac:.3f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. planted-signal power and matched control
# ---------------------------------------------------------------------------

def test_criterion_4_planted_signal_power(tmp_path):
    start = time.monotonic()
    # signal arm through the real CLI: synth (beta=4 preset) then `all`
    out = tmp_path / "gravity"
    seed = 3
    assert cli.main(
        ["synth", "--model", "gravity", "--n", "20000", "--groups", "20", "--beta", "4",
         "--stubs", "1,2,3,4,5", "--seed", str(seed), "--out", str(out)]
    ) == 0
    assert cli.main(
        ["all", "--edges", str(out / cli.EDGES_TSV), "--geo", str(out / cli.LABELS_TSV),
         "--out", str(out), "--seed", str(seed),
         "--sizes", ",".join(map(str, SET_SIZES)), "--sets", "100"]
    ) == 0
    with open(out / cli.RESULTS_TSV) as f:
        results = nm.read_results_tsv(f)
    assert len(results) == 20
    power = np.mean([r.significant for r in results])

    # matched beta=0 homogeneous control, scored with the same structure-blind
    # random-label protocol as criterion 3 (round-robin labels are stratified
    # over arrival order and under-disperse, so the two-sided band needs the
    # uniform-label protocol; the generator's own labels must still not inflate)
    control_seed = 2
    params = make_gravity_params(n=20_000, groups=20, beta=0.0, stubs=(3,), seed=control_seed)
    control_graph, robin_labels = gen_spatial_gravity(params)
    control_labels = random_group_labels(control_graph, 50, (50, 500), seed=control_seed)
    zs = group_zscores(control_graph, control_labels, seed=control_seed)
    control_frac = float(np.mean(np.abs(zs) > 2))
    control_mean = float(zs.mean())
    robin_zs = group_zscores(control_graph, robin_labels, seed=control_seed)
    robin_ok = abs(float(robin_zs.mean())) <= 0.3 and float(np.mean(np.abs(robin_zs) > 2)) <= 0.09
    elapsed = time.monotonic() - start
    report(
        4,
        "planted-signal power",
        power >= 0.8
        and abs(control_mean) <= 0.3
        and 0.02 <= control_frac <= 0.09
        and robin_ok
        and elapsed < 300,
        f"power {power:.2f}, control mean z {control_mean:+.3f},"
        f" control frac {control_frac:.3f}, round-robin control ok {robin_ok}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. scaling-law fit recovery
# ---------------------------------------------------------------------------

def test_criterion_5_scaling_law_fit():
    rng = np.random.default_rng(123)
    sizes = np.unique(np.round(np.logspace(1, 3, 10)).astype(int))
    ok = True
    details = []
    for alpha_true, a_true in ((0.5, 16.45), (1.0, 5.0)):
        factors = rng.normal(1.0, 0.05, size=len(sizes))
        noisy = nm.NullSamples(
            tuple(
                nm.NullSampleRow(int(s), 0.9, float(a_true * s**-alpha_true * f), 100)
                for s, f in zip(sizes, factors)
            )
        )
        fit = nm.fit_null_scaling(noisy)
        ok &= abs(fit.alpha - alpha_true) <= 0.15 and abs(fit.a - a_true) / a_true <= 0.10
        details.append(f"alpha {alpha_true}: fitted {fit.alpha:.3f}, a rel "
                       f"{abs(fit.a - a_true) / a_true:.3f}")

        exact = nm.NullSamples(
            tuple(
                nm.NullSampleRow(int(s), 0.9, float(a_true * s**-alpha_true), 100)
                for s in sizes
            )
        )
        fit0 = nm.fit_null_scaling(exact)
        ok &= abs(fit0.alpha - alpha_true) <= 1e-10
        ok &= abs(fit0.a - a_true) / a_true <= 1e-10
    report(5, "scaling-law fit", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 6. ingestion fixtures
# ---------------------------------------------------------------------------

def test_criterion_6_ingestion_fixtures():
    text = (
        "# fixture\n"
        "link L1: N1:1.2.3.4 N2 N3:5.6.7.8\n"
        "link L2: N7 N7\n"
        "link L3: N1 N2\n"
    )
    el = gstore.parse_links(io.StringIO(text))
    counters = el.self_pairs_dropped == 1 and el.duplicate_pairs_dropped == 1

    graph = gstore.build_graph(el)
    src, dst = graph.edge_id_pairs()
    three_router = {
        tuple(sorted((graph.names[a], graph.names[b]))) for a, b in zip(src.tolist(), dst.tolist())
    } == {("N1", "N2"), ("N1", "N3"), ("N2", "N3")}
    edges_a, nodes_a = io.StringIO(), io.StringIO()
    gstore.write_edges_tsv(graph, edges_a)
    gstore.write_nodes_tsv(graph, nodes_a)
    el2 = gstore.parse_edges_tsv(io.StringIO(edges_a.getvalue()))
    gstore.parse_nodes_tsv(io.StringIO(nodes_a.getvalue()), el2)
    graph2 = gstore.build_graph(el2)
    edges_b = io.StringIO()
    gstore.write_edges_tsv(graph2, edges_b)
    round_trip = graph.equals(graph2) and edges_b.getvalue() == edges_a.getvalue()

    report(
        6,
        "ingestion fixtures",
        three_router and counters and round_trip,
        f"expansion {three_router}, counters {counters}, round-trip {round_trip}",
    )


# ---------------------------------------------------------------------------
# 7. determinism of the staged pipeline
# ---------------------------------------------------------------------------

def test_criterion_7_pipeline_determinism(tmp_path):
    def run_once(out):
        code = cli.main(
            ["all", "--links", str(FIXTURE_DIR / "fixture_200.links"),
             "--geo", str(FIXTURE_DIR / "fixture_200.geo"), "--out", str(out),
             "--seed", "21", "--sizes", "10,20,50,100", "--sets", "60", "--level", "both"]
        )
        assert code == 0

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_once(out_a)
    run_once(out_b)
    identical = True
    compared = 0
    for path_a in sorted(out_a.iterdir()):
        path_b = out_b / path_a.name
        if path_a.name == cli.MANIFEST:
            strip = lambda p: [l.rsplit("\t", 1)[0] for l in p.read_text().splitlines()]
            identical &= strip(path_a) == strip(path_b)
        else:
            identical &= path_a.read_bytes() == path_b.read_bytes()
        compared += 1
    report(7, "pipeline determinism", identical and compared >= 10, f"{compared} artifacts")


# ---------------------------------------------------------------------------
# 8. ingest + features performance at scale
# ---------------------------------------------------------------------------

def _write_big_graph(edges_path, n=1_000_000, m=5_000_000, seed=99):
    rng = np.random.default_rng(seed)
    # path backbone guarantees every node appears; random edges fill to m
    backbone = np.arange(n - 1, dtype=np.int64) * n + np.arange(1, n, dtype=np.int64)
    codes = backbone
    while len(codes) < m:
        src = rng.integers(0, n, size=m, dtype=np.int64)
        dst = rng.integers(0, n, size=m, dtype=np.int64)
        keep = src != dst
        lo = np.minimum(src[keep], dst[keep])
        hi = np.maximum(src[keep], dst[keep])
        codes = np.sort(np.concatenate([codes, lo * n + hi]))
        codes = codes[np.diff(codes, prepend=-1) != 0]  # np.unique's result, much faster
    extra = codes[~np.isin(codes, backbone, assume_unique=True)]
    codes = np.sort(np.concatenate([backbone, extra[: m - len(backbone)]]))
    # rows "N%07d\tN%07d\n" as one byte matrix, one column per character
    rows = np.empty((m, 18), dtype=np.uint8)
    rows[:, [0, 9]] = ord("N")
    rows[:, 8], rows[:, 17] = ord("\t"), ord("\n")
    for col, ids in ((1, codes // n), (10, codes % n)):
        for place in range(7):
            rows[:, col + 6 - place] = ord("0") + ids // 10**place % 10
    rows.tofile(edges_path)
    return n, m


def test_criterion_8_ingest_features_performance(tmp_path):
    edges_path = tmp_path / "big_edges.tsv"
    # the 1M-node input is built in a child process: a stage started from
    # pytest reports at least pytest's own high-water mark as its ru_maxrss
    writer = (
        "import sys; sys.path.insert(0, sys.argv[2]);"
        " from test_acceptance import _write_big_graph; print(*_write_big_graph(sys.argv[1]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", writer, str(edges_path), str(Path(__file__).parent)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    n, m = map(int, proc.stdout.split())
    out = tmp_path / "bigrun"
    log = tmp_path / "stage.err"

    start = time.monotonic()
    peak_kib = 0
    for stage_args in (
        ["ingest", "--edges", str(edges_path), "--out", str(out)],
        ["features", "--out", str(out)],
    ):
        with open(log, "wb") as err:
            stage = subprocess.Popen(
                [sys.executable, "-m", "toposig.cli", *stage_args], stderr=err
            )
            _, status, usage = os.wait4(stage.pid, 0)  # this stage's rusage, not the writer's
        stage.returncode = os.waitstatus_to_exitcode(status)
        assert stage.returncode == 0, log.read_text()
        peak_kib = max(peak_kib, usage.ru_maxrss)
    elapsed = time.monotonic() - start
    peak_gb = peak_kib / 1e6

    manifest = (out / cli.MANIFEST).read_text()
    counts_ok = f"n={n} m={m}" in manifest
    report(
        8,
        "ingest+features performance",
        counts_ok and elapsed < 120.0 and peak_gb < 4.0,
        f"n={n} m={m}, {elapsed:.1f}s, peak {peak_gb:.2f} GB",
    )


# ---------------------------------------------------------------------------
# 9. optional integration tier on the real dataset
# ---------------------------------------------------------------------------

def test_criterion_9_topology_snapshot_integration():
    links = os.environ.get("TOPOSIG_ITDK_LINKS")
    geo = os.environ.get("TOPOSIG_ITDK_GEO")
    if not links or not geo:
        pytest.skip("integration tier: set TOPOSIG_ITDK_LINKS and TOPOSIG_ITDK_GEO to run")

    with open(links, encoding="utf-8") as f:
        edge_list = gstore.parse_links(f)
    graph = gstore.build_graph(edge_list)
    counts_ok = graph.n == 3_248_358 and graph.m == 14_083_946

    with open(geo, encoding="utf-8") as f:
        labels = gstore.parse_geo(f)
    countries = {k: v for k, v in country_groups(graph, labels).items() if len(v) >= 2}
    regions = {k: v for k, v in region_groups(graph, labels).items() if len(v) >= 2}
    config = nm.NullSamplingConfig(set_sizes=SET_SIZES + (1000,), sets_per_size=100, seed=0)
    memberships = {"country": countries, "region": regions}
    null = nm.analyze(compute_all_features(graph), memberships, config).null
    mu_ok = abs(null.mu_r - 0.877654) / 0.877654 <= 0.02
    alpha_ok = abs(null.alpha - 1.0) <= 0.2
    groups_ok = len(countries) == 180 and len(regions) == 354
    report(
        9,
        "topology snapshot integration",
        counts_ok and mu_ok and alpha_ok and groups_ok,
        f"n={graph.n} m={graph.m} mu_r={null.mu_r:.6f} alpha={null.alpha:.3f}"
        f" countries={len(countries)} regions={len(regions)}",
    )
