import collections
import itertools
import math

import numpy as np
import pytest
from scipy.stats import chisquare, ks_2samp

from toposig import synth


def assert_simple_undirected(graph):
    assert int(graph.degrees.sum()) == 2 * graph.m
    row = np.repeat(np.arange(graph.n), graph.degrees)
    assert np.all(row != graph.indices), "self-loop found"
    keys = row * graph.n + graph.indices
    assert np.all(np.diff(keys) > 0), "a row is not sorted and distinct"
    src, dst = graph.edge_id_pairs()
    both = np.concatenate([src * graph.n + dst, dst * graph.n + src])
    assert np.array_equal(np.sort(both), keys), "an edge is not stored in both of its rows"


# ---------------------------------------------------------------------------
# Erdos-Renyi
# ---------------------------------------------------------------------------

def test_er_p_zero_has_no_edges():
    graph = synth.gen_er(10, 0.0, seed=0)
    assert graph.n == 10 and graph.m == 0


def test_er_p_one_is_complete():
    graph = synth.gen_er(10, 1.0, seed=0)
    assert graph.m == 45


def test_er_invalid_p_rejected():
    with pytest.raises(ValueError):
        synth.gen_er(10, 1.5, seed=0)
    with pytest.raises(ValueError):
        synth.gen_er(1, 0.5, seed=0)


@pytest.mark.parametrize("p", [1e-310, 5e-324])
def test_er_subnormal_p_ends_the_walk(p):
    # most skips are inf here: log(1 - u) / log1p(-p) overflows a float
    for seed in range(5):
        graph = synth.gen_er(100, p, seed=seed)
        assert (graph.n, graph.m) == (100, 0)


def test_er_deterministic_per_seed():
    a = synth.gen_er(200, 0.05, seed=3)
    b = synth.gen_er(200, 0.05, seed=3)
    c = synth.gen_er(200, 0.05, seed=4)
    assert a.equals(b)
    assert not a.equals(c)


def test_er_mean_degree_within_binomial_moments():
    n, p = 5000, 0.002
    graph = synth.gen_er(n, p, seed=7)
    expected = p * (n - 1)
    # mean degree = 2m/n; m ~ Binomial(C(n,2), p)
    se = math.sqrt(2 * p * (1 - p) * (n - 1) / n)
    assert abs(2 * graph.m / n - expected) <= 3 * se
    assert_simple_undirected(graph)


# ---------------------------------------------------------------------------
# preferential attachment
# ---------------------------------------------------------------------------

def test_ba_seed_clique_only():
    graph = synth.gen_pref_attach(4, 3, seed=0)
    assert graph.m == 6  # K4


def test_ba_edge_count_formula():
    for n, m in ((50, 1), (100, 3), (500, 5)):
        graph = synth.gen_pref_attach(n, m, seed=1)
        assert graph.m == math.comb(m + 1, 2) + m * (n - m - 1)
        assert_simple_undirected(graph)


def test_ba_invalid_params_rejected():
    with pytest.raises(ValueError):
        synth.gen_pref_attach(5, 0, seed=0)
    with pytest.raises(ValueError):
        synth.gen_pref_attach(5, 5, seed=0)


def test_ba_heavy_tail():
    graph = synth.gen_pref_attach(20_000, 2, seed=2)
    degrees = np.sort(graph.degrees)
    assert degrees.max() > 10 * np.median(degrees)


def test_ba_deterministic_per_seed():
    a = synth.gen_pref_attach(300, 2, seed=9)
    b = synth.gen_pref_attach(300, 2, seed=9)
    assert a.equals(b)


# ---------------------------------------------------------------------------
# spatial gravity growth
# ---------------------------------------------------------------------------

def test_gravity_params_validation():
    with pytest.raises(ValueError):
        synth.make_gravity_params(n=5, groups=10, beta=1.0, stubs=(1,), seed=0)
    with pytest.raises(ValueError):
        synth.make_gravity_params(n=50, groups=5, beta=-1.0, stubs=(1,), seed=0)
    with pytest.raises(ValueError):
        synth.make_gravity_params(n=50, groups=5, beta=1.0, stubs=(0,), seed=0)
    good = synth.make_gravity_params(n=50, groups=5, beta=1.0, stubs=(1, 2), seed=0)
    with pytest.raises(ValueError):
        synth.GravityParams(
            n=50, groups=5, positions=good.positions * 3, stubs=good.stubs, beta=1.0, seed=0
        )
    with pytest.raises(ValueError, match="one count >= 1 per group"):
        synth.make_gravity_params(n=50, groups=5, beta=1.0, stubs=(), seed=0)


@pytest.mark.parametrize("beta", [math.nan, math.inf, 200.0])
def test_gravity_params_reject_unusable_decay(beta):
    # nan/inf exponents, and 0.01**-200 overflowing to inf on the diagonal
    with pytest.raises(ValueError):
        synth.make_gravity_params(n=50, groups=5, beta=beta, stubs=(1,), seed=0)


def test_gravity_weight_overflow_raises():
    # 0.01**-154 = 1e308 is finite, but two such weights of degree + 1 = 2 sum to inf
    params = synth.make_gravity_params(n=5, groups=1, beta=154.0, stubs=(1,), seed=0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="lower beta"):
        synth.gen_spatial_gravity(params)


def test_gravity_round_robin_group_sizes():
    params = synth.make_gravity_params(n=103, groups=10, beta=1.0, stubs=(2,), seed=1)
    graph, labels = synth.gen_spatial_gravity(params)
    counts = collections.Counter(labels.country.values())
    assert sum(counts.values()) == 103
    assert max(counts.values()) - min(counts.values()) <= 1
    assert len(counts) == 10


def test_gravity_region_is_group_quadrant():
    params = synth.make_gravity_params(n=40, groups=8, beta=0.5, stubs=(1,), seed=2)
    graph, labels = synth.gen_spatial_gravity(params)
    assert set(labels.region.values()) <= {"Q0", "Q1", "Q2", "Q3"}
    # same group -> same region
    by_country = collections.defaultdict(set)
    for name, country in labels.country.items():
        by_country[country].add(labels.region[name])
    assert all(len(regions) == 1 for regions in by_country.values())


def test_gravity_graph_invariants_and_determinism():
    params = synth.make_gravity_params(n=400, groups=6, beta=3.0, stubs=(1, 2, 3), seed=4)
    a, labels_a = synth.gen_spatial_gravity(params)
    b, labels_b = synth.gen_spatial_gravity(params)
    assert a.equals(b)
    assert labels_a.country == labels_b.country
    assert_simple_undirected(a)
    # each arrival i contributes min(stubs[g(i)], i) edges
    stubs = params.stubs
    expected = sum(min(stubs[i % 6], i) for i in range(1, 400))
    assert a.m == expected


def test_gravity_beta_zero_indistinguishable_from_pref_attach():
    # with no distance decay and equal stubs the growth reduces to
    # degree-proportional attachment; KS on degree sequences at 5%
    n, m = 2000, 5
    params = synth.make_gravity_params(n=n, groups=10, beta=0.0, stubs=(m,), seed=0)
    gravity, _ = synth.gen_spatial_gravity(params)
    ba = synth.gen_pref_attach(n, m, seed=100)
    stat, p_value = ks_2samp(gravity.degrees, ba.degrees)
    assert p_value > 0.05


def test_gravity_single_group():
    params = synth.make_gravity_params(n=30, groups=1, beta=2.0, stubs=(2,), seed=5)
    graph, labels = synth.gen_spatial_gravity(params)
    assert set(labels.country.values()) == {"C0"}


def _choice_gravity_edges(params):
    """Reference: the arrival loop on ``rng.choice``, whose stream the generator keeps."""
    n, n_groups = params.n, params.groups
    rng = np.random.default_rng(params.seed)
    group_of = np.arange(n) % n_groups
    delta = params.positions[:, None, :] - params.positions[None, :, :]
    decay = (np.sqrt((delta**2).sum(axis=2)) + synth.DISTANCE_FLOOR) ** (-params.beta)
    degree = np.zeros(n)
    targets, arrivals = [], []
    for i in range(1, n):
        m_i = min(params.stubs[group_of[i]], i)
        weights = (degree[:i] + 1.0) * decay[group_of[i], group_of[:i]]
        drawn = rng.choice(i, size=m_i, replace=False, p=weights / weights.sum())
        targets.extend(drawn.tolist())
        arrivals.extend([i] * m_i)
        degree[drawn] += 1.0
        degree[i] += m_i
    return np.array(targets), np.array(arrivals)


def test_gravity_too_few_targets_with_weight_raises():
    # 1.42**-153 / 0.01**-153 underflows: the far group's node gets probability 0,
    # so arrival 2 has one reachable target for its 2 stubs; choice refuses too
    params = synth.GravityParams(
        n=3, groups=2, positions=np.array([[0.0, 0.0], [1.0, 1.0]]), stubs=(2, 1),
        beta=153.0, seed=0,
    )
    with pytest.raises(ValueError, match="nonzero weight at arrival 2"):
        synth.gen_spatial_gravity(params)
    with pytest.raises(ValueError):
        _choice_gravity_edges(params)


@pytest.mark.parametrize(
    "n, groups, beta, stubs, seed",
    [
        (200, 1, 2.0, (3,), 0),  # one group
        (300, 5, 0.0, (2,), 1),  # no distance decay
        (150, 4, 3.0, (7, 1, 12, 4), 2),  # stubs exceed the early arrival counts
        (600, 20, 4.0, (1, 2, 3, 4, 5), 3),  # the synth preset's shape
        (60, 3, 8.0, (5,), 0),  # strong decay: first rounds often repeat a target
        (700, 7, 3.0, (1, 4, 2), 4),  # 11 blocks of 64 ids; 7 groups do not divide 64
        (300, 300, 2.0, (1, 3), 6),  # every node its own group
        (40, 2, 145.0, (3,), 3),  # later rounds fall below 2**-900 of the total and still draw
    ],
)
def test_gravity_keeps_the_choice_stream(monkeypatch, n, groups, beta, stubs, seed):
    params = synth.make_gravity_params(n=n, groups=groups, beta=beta, stubs=stubs, seed=seed)
    expected = _choice_gravity_edges(params)

    default_rng = np.random.default_rng
    rngs = []

    class CountingRng:
        def __init__(self, seed):
            self._rng = default_rng(seed)
            self.rounds = 0
            rngs.append(self)

        def random(self, size):
            self.rounds += 1
            return self._rng.random(size)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    targets, arrivals = synth._gravity_edges(params)
    monkeypatch.undo()
    np.testing.assert_array_equal(targets, expected[0])
    np.testing.assert_array_equal(arrivals, expected[1])
    (rng,) = rngs
    assert rng.rounds > n - 1, "no arrival needed a second round of draws"

    graph, _ = synth.gen_spatial_gravity(params)
    src, dst = graph.edge_id_pairs()
    assert sorted(zip(src.tolist(), dst.tolist())) == sorted(zip(*expected))


def test_gravity_block_table_grows_like_the_root_of_n_times_groups():
    assert 700 // synth._block_size(700, 7) >= 10  # the 11-block case above
    for n, groups in [(2, 2), (700, 7), (300, 300), (20_000, 20), (20_000, 5_000), (10**6, 10**6)]:
        size = synth._block_size(n, groups)
        assert 1 <= size <= n
        # the block weights cost blocks x groups per round, the slot search size per draw
        assert -(-n // size) * groups + size <= 8 * math.isqrt(n * groups) + 4096


def test_gravity_choice_pass_runs_only_in_underflow_rounds(monkeypatch):
    shares = []
    choice_round = synth._choice_round

    def spy(x, weights, total):
        shares.append(weights.sum() / total)
        return choice_round(x, weights, total)

    monkeypatch.setattr(synth, "_choice_round", spy)
    preset = synth.make_gravity_params(n=600, groups=20, beta=4.0, stubs=(1, 2, 3, 4, 5), seed=3)
    synth._gravity_edges(preset)
    assert shares == []
    synth._gravity_edges(synth.make_gravity_params(n=40, groups=2, beta=145.0, stubs=(3,), seed=3))
    assert shares and all(0.0 < share < 2.0**-900 for share in shares)


@pytest.mark.parametrize("top", [False, True])
def test_gravity_extreme_uniforms_take_the_first_or_last_weighted_nodes(monkeypatch, top):
    # rounding near the top of a block may step a search past its last live
    # node; it must come back to a node with weight, as choice's CDF does
    params = synth.make_gravity_params(n=2000, groups=3, beta=2.0, stubs=(1, 4, 9), seed=0)
    x = 1.0 - 2.0**-53 if top else 0.0

    class ExtremeRng:
        def __init__(self, seed):
            pass

        def random(self, size):
            return np.full(size, x)

    monkeypatch.setattr(np.random, "default_rng", ExtremeRng)
    targets, arrivals = synth._gravity_edges(params)
    rank = np.arange(len(arrivals)) - arrivals.searchsorted(arrivals)  # draw number in its arrival
    # every round draws one node: the highest live id, or the lowest
    np.testing.assert_array_equal(targets, arrivals - 1 - rank if top else rank)


def _successive_sampling_law(params):
    """Exact probability of every graph the gravity growth can produce."""
    decay = params.decay()
    n, n_groups = params.n, params.groups
    law = {}

    def subset_prob(weights, subset):
        total = weights.sum()
        prob = 0.0
        for order in itertools.permutations(subset):
            left, p = total, 1.0
            for j in order:
                p *= weights[j] / left
                left -= weights[j]
            prob += p
        return prob

    def grow(i, degree, edges, prob):
        if i == n:
            law[frozenset(edges)] = prob
            return
        g = i % n_groups
        m_i = min(params.stubs[g], i)
        weights = (degree[:i] + 1.0) * decay[g, np.arange(i) % n_groups]
        for subset in itertools.combinations(range(i), m_i):
            nxt = degree.copy()
            nxt[list(subset)] += 1
            nxt[i] += m_i
            grow(i + 1, nxt, edges + [(j, i) for j in subset], prob * subset_prob(weights, subset))

    grow(1, np.zeros(n), [], 1.0)
    return law


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_gravity_law_matches_exact_enumeration(beta):
    base = synth.make_gravity_params(n=6, groups=3, beta=beta, stubs=(2, 1, 3), seed=0)
    law = _successive_sampling_law(base)
    assert len(law) == 120 and math.isclose(sum(law.values()), 1.0)
    draws = 4000
    counts = collections.Counter()
    for seed in range(draws):
        params = synth.GravityParams(
            n=6, groups=3, positions=base.positions, stubs=base.stubs, beta=beta, seed=seed
        )
        src, dst = synth._gravity_edges(params)
        counts[frozenset(zip(src.tolist(), dst.tolist()))] += 1
    assert set(counts) <= set(law)
    cells = sorted(law, key=law.get)
    expected = np.array([draws * law[c] for c in cells])
    observed = np.array([counts[c] for c in cells], dtype=np.float64)
    small = expected < 5  # pool the sparse cells into one
    expected = np.append(expected[~small], expected[small].sum())
    observed = np.append(observed[~small], observed[small].sum())
    assert chisquare(observed, expected).pvalue > 1e-3


# ---------------------------------------------------------------------------
# random labels
# ---------------------------------------------------------------------------

def test_random_group_labels_disjoint_and_sized():
    graph = synth.gen_er(2000, 0.005, seed=6)
    labels = synth.random_group_labels(graph, 10, (20, 60), seed=6)
    counts = collections.Counter(labels.country.values())
    assert len(counts) == 10
    assert all(20 <= c <= 60 for c in counts.values())
    assert len(labels.country) == sum(counts.values())  # disjoint


def test_random_group_labels_too_large_rejected():
    graph = synth.gen_er(50, 0.1, seed=7)
    with pytest.raises(ValueError):
        synth.random_group_labels(graph, 10, (20, 30), seed=7)
