import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toposig import graph as g
from toposig.features import (
    GlobalDegreeStats,
    compute_all_features,
    global_degree_stats,
    write_features_tsv,
)
from toposig.synth import gen_er


def graph_from_pairs(pairs, extra_names=()):
    el = g.parse_edges_tsv(io.StringIO("".join(f"{a}\t{b}\n" for a, b in pairs)))
    g.parse_nodes_tsv(io.StringIO("".join(f"{name}\n" for name in extra_names)), el)
    return g.build_graph(el)


def ring(n):
    return graph_from_pairs([(f"N{i}", f"N{(i + 1) % n}") for i in range(n)])


def star4():
    return graph_from_pairs([("c", leaf) for leaf in ("l1", "l2", "l3", "l4")])


def naive_features(pairs, all_names):
    """Independent double-loop oracle straight from the raw pair list."""
    adj = {name: set() for name in all_names}
    for a, b in pairs:
        if a == b:
            continue
        adj[a].add(b)
        adj[b].add(a)
    k = {name: len(adj[name]) for name in all_names}
    n = len(all_names)
    k_mean = sum(k.values()) / n
    k_var = sum((v - k_mean) ** 2 for v in k.values()) / (n - 1)
    rows = {}
    for name in all_names:
        ki = k[name]
        if ki == 0:
            rows[name] = (0.0, 0.0, 0.0, 0.0)
            continue
        nbr = [k[other] for other in adj[name]]
        avg = sum(nbr) / ki
        var = sum((x - k_mean) ** 2 for x in nbr) / (ki - 1) if ki > 1 else 0.0
        if k_var > 0:
            corr = sum((ki - k_mean) * (x - k_mean) for x in nbr) / (k_var * ki)
        else:
            corr = 0.0
        rows[name] = (float(ki), avg, var, corr)
    return rows


# ---------------------------------------------------------------------------
# global stats
# ---------------------------------------------------------------------------

def test_ring_global_stats():
    stats = global_degree_stats(ring(5))
    assert stats.mean_degree == 2.0
    assert stats.degree_std == 0.0


def test_star_global_stats():
    stats = global_degree_stats(star4())
    assert stats.mean_degree == pytest.approx(1.6)
    assert stats.degree_std**2 == pytest.approx(1.8)


def test_global_stats_require_two_nodes():
    graph = graph_from_pairs([], extra_names=["N1"])
    assert graph.names == ("N1",)
    with pytest.raises(ValueError):
        global_degree_stats(graph)


def test_global_stats_match_two_pass_oracle():
    graph = gen_er(60, 0.2, seed=9)
    stats = global_degree_stats(graph)
    deg = [int(d) for d in graph.degrees]
    mean = sum(deg) / len(deg)
    var = sum((d - mean) ** 2 for d in deg) / (len(deg) - 1)
    assert stats.mean_degree == pytest.approx(mean, rel=1e-12)
    assert stats.degree_std == pytest.approx(var**0.5, rel=1e-12)
    assert stats.mean_degree == pytest.approx(2 * graph.m / graph.n, rel=1e-12)


# ---------------------------------------------------------------------------
# per-node features
# ---------------------------------------------------------------------------

def test_ring_rows():
    graph = ring(5)
    values = compute_all_features(graph)
    assert np.allclose(values, np.tile([2.0, 2.0, 0.0, 0.0], (5, 1)))


def test_complete_graph_rows():
    graph = graph_from_pairs(
        [(f"N{a}", f"N{b}") for a in range(4) for b in range(a + 1, 4)]
    )
    values = compute_all_features(graph)
    assert np.allclose(values, np.tile([3.0, 3.0, 0.0, 0.0], (4, 1)))


def test_star_center_and_leaf():
    graph = star4()
    values = compute_all_features(graph)
    center = values[graph.names.index("c")]
    assert (center[0], center[1]) == (4, 1.0)
    assert center[2] == pytest.approx(0.48)
    assert center[3] == pytest.approx(-0.8)
    leaf = values[graph.names.index("l1")]
    assert (leaf[0], leaf[1], leaf[2]) == (1, 4.0, 0.0)
    assert leaf[3] == pytest.approx(-0.8)


def test_isolated_node_row_is_zero():
    graph = graph_from_pairs([("N1", "N2"), ("N2", "N3")], extra_names=["N9"])
    values = compute_all_features(graph)
    assert np.array_equal(values[graph.names.index("N9")], np.zeros(4))
    assert np.all(np.isfinite(values))


def test_features_match_naive_oracle():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 50))
        graph = gen_er(n, float(rng.uniform(0.05, 0.5)), seed=seed)
        src, dst = graph.edge_id_pairs()
        pairs = [(graph.names[a], graph.names[b]) for a, b in zip(src, dst)]
        oracle = naive_features(pairs, list(graph.names))
        values = compute_all_features(graph)
        for node, name in enumerate(graph.names):
            got = values[node]
            assert np.allclose(got, oracle[name], rtol=1e-10, atol=1e-10), name


@given(st.integers(3, 9), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_isomorphism_permutes_rows(n, seed):
    rng = np.random.default_rng(seed)
    pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(2 * n, 2)) if a != b}
    if not pairs:
        return
    base = graph_from_pairs(
        [(f"N{a}", f"N{b}") for a, b in pairs], extra_names=[f"N{i}" for i in range(n)]
    )
    perm = rng.permutation(n)
    renamed = graph_from_pairs(
        [(f"M{perm[a]}", f"M{perm[b]}") for a, b in pairs],
        extra_names=[f"M{perm[i]}" for i in range(n)],
    )
    t_base = compute_all_features(base)
    t_renamed = compute_all_features(renamed)
    for i in range(n):
        a = t_base[base.names.index(f"N{i}")]
        b = t_renamed[renamed.names.index(f"M{perm[i]}")]
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


@given(st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_local_var_nonnegative_and_finite(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    graph = gen_er(n, float(rng.uniform(0.0, 0.6)), seed=seed + 1)
    values = compute_all_features(graph)
    assert np.all(values[:, 2] >= 0.0)
    assert np.all(np.isfinite(values))


# ---------------------------------------------------------------------------
# TSV artifact
# ---------------------------------------------------------------------------

def test_features_tsv_round_trip():
    graph = gen_er(25, 0.25, seed=11)
    features = compute_all_features(graph)
    out = io.StringIO()
    write_features_tsv(graph, features, global_degree_stats(graph), out)
    rows = [line.split("\t") for line in out.getvalue().splitlines() if not line.startswith("#")]
    names = [row[0] for row in rows]
    values = np.array([[float(v) for v in row[1:]] for row in rows])
    assert names == list(graph.names)
    assert np.allclose(values, features, rtol=1e-8)
    assert names == sorted(names)


def fstring_features_rows(graph, values):
    """The features TSV body written one f-string per row of numpy scalars."""
    return "".join(
        f"{graph.names[i]}\t{int(values[i, 0])}\t{values[i, 1]:.9g}"
        f"\t{values[i, 2]:.9g}\t{values[i, 3]:.9g}\n"
        for i in range(graph.n)
    )


ODD_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 123456789.5, 1e22, -2.5e-7, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(
    st.lists(
        st.tuples(st.integers(0, 10**6), ODD_FLOAT, ODD_FLOAT, ODD_FLOAT), min_size=6, max_size=6
    ),
    st.integers(1, 7),
)
@settings(max_examples=100, deadline=None)
def test_write_features_tsv_matches_fstring_rows(rows, chunk):
    graph = g.graph_from_id_edges(sorted(["#a", "x ", "\x85", " ", "N1", "é"]), [0, 1], [1, 2])
    values = np.array(rows, dtype=np.float64)
    stats = GlobalDegreeStats(-0.0, 1e-300, graph.n)
    out = io.StringIO()
    with mock.patch.object(g, "_CHUNK_NODES", chunk):
        write_features_tsv(graph, values, stats, out)
    text = out.getvalue()
    assert text.splitlines(keepends=True)[:3] == [
        "# node\tk\tavg_nbr_deg\tlocal_var\tlocal_corr\n",
        "# conventions: k=0 row all zeros; k=1 sets local_var=0;"
        " zero degree spread sets local_corr=0\n",
        f"# mean_degree=-0\tdegree_std=1e-300\tn={graph.n}\n",
    ]
    assert text.split("\n", 3)[3] == fstring_features_rows(graph, values)


def test_compute_all_features_transient_memory_is_below_the_neighbor_ids():
    n = 200_000
    a, b = np.random.default_rng(8).integers(0, n, size=(2, 1_000_000))
    keep = a != b
    keys = np.unique(np.minimum(a[keep], b[keep]) * n + np.maximum(a[keep], b[keep]))
    graph = g.graph_from_id_edges([f"N{i:06d}" for i in range(n)], keys // n, keys % n)
    assert graph.m >= 500_000
    tracemalloc.start()
    try:
        compute_all_features(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # neighbor degrees are gathered one node range at a time, not for all 2m ids
    assert peak < graph.indices.nbytes


def test_neighbor_sums_do_not_depend_on_the_node_range():
    graph = gen_er(300, 0.05, seed=9)
    whole = compute_all_features(graph)
    for chunk in (1, 7, 64):
        with mock.patch.object(g, "_CHUNK_NODES", chunk):
            assert compute_all_features(graph).tobytes() == whole.tobytes()
