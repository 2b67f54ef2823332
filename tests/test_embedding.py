import tracemalloc
from unittest import mock

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from toposig import embedding as em


def random_spd(rng, dim=4, jitter=0.1):
    a = rng.normal(size=(dim, dim))
    return a @ a.T + jitter * np.eye(dim)


def distance(a, b):
    """Euclidean distance between two whitened points."""
    return float(np.linalg.norm(a - b))


def unit_covariance_cloud(rng, n=400, dim=4):
    """Data whose *sample* covariance is the identity (up to float error)."""
    x = rng.multivariate_normal(np.zeros(dim), random_spd(rng), size=n)
    xc = x - x.mean(axis=0)
    cov = xc.T @ xc / (n - 1)
    w, v = np.linalg.eigh(cov)
    return xc @ (v / np.sqrt(w)) @ v.T


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------

def test_jacobi_matches_library_solver():
    """The fitted eigenpairs decompose the fitted covariance, signs canonical."""
    rng = np.random.default_rng(0)
    for _ in range(25):
        s = random_spd(rng, jitter=float(rng.uniform(0, 1)))
        model = em.fit_embedding(rng.multivariate_normal(np.zeros(4), s, size=200))
        w, v, cov = model.eigenvalues, model.eigenvectors, model.covariance
        w_ref = np.sort(np.linalg.eigvalsh(cov))[::-1]
        assert np.allclose(w, w_ref, rtol=1e-10, atol=1e-10)
        assert np.allclose(v.T @ v, np.eye(4), atol=1e-10)
        assert np.allclose(v @ np.diag(w) @ v.T, cov, atol=1e-9)
        pivots = v[np.argmax(np.abs(v), axis=0), np.arange(4)]
        assert np.all(pivots > 0)


def test_jacobi_descending_and_nonnegative():
    rng = np.random.default_rng(1)
    x = rng.multivariate_normal(np.zeros(4), random_spd(rng), size=200)
    w = em.fit_embedding(x).eigenvalues
    assert np.all(np.diff(w) <= 0)
    assert np.all(w >= 0)
    # rank-1 data: the library solver's tiny negative eigenvalues are clamped
    w = em.fit_embedding(np.outer(np.linspace(0, 1, 50), [1.0, -2.0, 0.5, 3.0])).eigenvalues
    assert np.all(np.diff(w) <= 0)
    assert np.all(w >= 0)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_isotropic_data_gives_euclidean_distances():
    rng = np.random.default_rng(2)
    x = unit_covariance_cloud(rng)
    model = em.fit_embedding(x)
    assert model.retained == 4
    assert np.allclose(model.whitening @ model.whitening.T, np.eye(4), atol=1e-8)
    y = em.transform_all(model, x)
    for _ in range(50):
        i, j = rng.integers(len(x)), rng.integers(len(x))
        d = distance(y[i], y[j])
        assert d == pytest.approx(float(np.linalg.norm(x[i] - x[j])), abs=1e-8)


def test_collinear_data_retains_one_component():
    t = np.linspace(0, 1, 50)
    x = np.outer(t, [1.0, -2.0, 0.5, 3.0])
    model = em.fit_embedding(x)
    assert model.retained == 1


def test_whitened_training_covariance_is_identity():
    rng = np.random.default_rng(3)
    x = rng.multivariate_normal(np.array([5.0, -1.0, 2.0, 0.0]), random_spd(rng), size=10_000)
    model = em.fit_embedding(x)
    y = em.transform_all(model, x)
    cov = np.cov(y.T)
    assert np.abs(cov - np.eye(model.retained)).max() < 5e-2
    # exact identity against the fitted (not population) covariance
    exact = (y.T @ y - len(y) * np.outer(y.mean(0), y.mean(0))) / (len(y) - 1)
    assert np.abs(exact - np.eye(model.retained)).max() < 1e-8


def test_degenerate_table_rejected():
    x = np.ones((10, 4))
    with pytest.raises(em.DegenerateFeaturesError):
        em.fit_embedding(x)


def test_too_few_rows_rejected():
    with pytest.raises(ValueError):
        em.fit_embedding(np.eye(4))


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def test_transform_of_mean_is_origin():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(100, 4))
    model = em.fit_embedding(x)
    assert np.allclose(em.transform_all(model, model.mean[None]), 0.0, atol=1e-12)


def test_transformed_training_mean_is_zero():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(500, 4)) * [1, 5, 0.2, 3] + [4, 0, -2, 1]
    model = em.fit_embedding(x)
    y = em.transform_all(model, x)
    assert np.abs(y.mean(axis=0)).max() < 1e-10


def test_transform_matches_matrix_vector_oracle():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(200, 4))
    model = em.fit_embedding(x)
    for _ in range(20):
        v = rng.normal(size=4)
        expected = model.whitening @ (v - model.mean)
        assert np.allclose(em.transform_all(model, v[None])[0], expected, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_distance_identity_and_symmetry():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(100, 4))
    a, b = em.transform_all(em.fit_embedding(x), x[:2])
    assert distance(a, a) == 0.0
    assert distance(a, b) == distance(b, a)


def test_distance_matches_quadratic_form_oracle():
    rng = np.random.default_rng(8)
    for _ in range(25):
        x = rng.multivariate_normal(np.zeros(4), random_spd(rng), size=600)
        model = em.fit_embedding(x)
        inv = np.linalg.inv(model.covariance)
        i, j = rng.integers(600), rng.integers(600)
        a, b = x[i], x[j]
        y = em.transform_all(model, x[[i, j]])
        d = distance(y[0], y[1])
        expected = float(np.sqrt((a - b) @ inv @ (a - b)))
        assert d == pytest.approx(expected, rel=1e-8)


def test_triangle_inequality_on_random_triples():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(300, 4)) @ random_spd(rng)
    model = em.fit_embedding(x)
    y = em.transform_all(model, x)
    for _ in range(200):
        i, j, k = rng.integers(0, 300, size=3)
        assert distance(y[i], y[k]) <= distance(y[i], y[j]) + distance(y[j], y[k]) + 1e-9


def test_affine_invariance_of_distances():
    rng = np.random.default_rng(10)
    x = rng.multivariate_normal(np.zeros(4), random_spd(rng), size=800)
    model = em.fit_embedding(x)
    y = em.transform_all(model, x)

    a = rng.normal(size=(4, 4)) + 2 * np.eye(4)  # invertible w.h.p.
    assert abs(np.linalg.det(a)) > 1e-6
    shifted = x @ a.T + rng.normal(size=4)
    model2 = em.fit_embedding(shifted)
    y2 = em.transform_all(model2, shifted)
    for _ in range(100):
        i, j = rng.integers(0, 800, size=2)
        d1, d2 = distance(y[i], y[j]), distance(y2[i], y2[j])
        if d1 > 1e-12:
            assert d2 == pytest.approx(d1, rel=1e-6)


# ---------------------------------------------------------------------------
# mean pairwise distance
# ---------------------------------------------------------------------------

def test_two_points_exact():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    r = em.mean_pairwise_distance(pts)
    assert (r.mean, r.pair_count_used, r.exact) == (5.0, 1, True)


def test_identical_points_zero():
    pts = np.tile([1.0, 2.0, 3.0], (40, 1))
    assert em.mean_pairwise_distance(pts).mean == 0.0


def test_single_point_rejected():
    with pytest.raises(ValueError):
        em.mean_pairwise_distance(np.zeros((1, 3)))


def awkward_points(n, d, seed):
    """Coordinates from 1e-8 to 1e8 in magnitude, with repeated rows."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-8, 8, size=(n, d))
    pts[n // 2] = pts[0]
    pts[-1] = pts[n // 3]
    return pts


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 31, 32, 33, 500, 2000])
def test_all_pair_distances_are_pdists_bytes(n, d):
    pts = awkward_points(n, d, seed=100 * n + d)
    strided = np.repeat(pts, 2, axis=1)[:, ::2]
    for layout in (pts, np.asfortranarray(pts), strided, pts[::-1]):
        got = em.all_pair_distances(layout)
        assert got.dtype == np.float64
        assert got.tobytes() == pdist(layout).tobytes()


@pytest.mark.parametrize("n", [2, 33, 2000])
def test_mean_pairwise_distance_is_the_same_through_either_kernel(n):
    pts = awkward_points(n, 4, seed=n)
    for budget in (n * (n - 1) // 2, 1000):  # exact, then sampled when n > 45
        ours = em.mean_pairwise_distance(pts, budget, np.random.default_rng(3))
        theirs = em.mean_pairwise_distance(pts, budget, np.random.default_rng(3), kernel=pdist)
        assert ours == theirs


def test_exact_mean_matches_allpairs_loop():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(100, 4))
    r = em.mean_pairwise_distance(pts, pair_budget=5000)
    brute = np.mean(
        [np.linalg.norm(pts[i] - pts[j]) for i in range(100) for j in range(i + 1, 100)]
    )
    assert r.exact and r.pair_count_used == 4950
    assert r.mean == pytest.approx(float(brute), abs=1e-12)


def test_sampled_mean_is_unbiased():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(300, 4))
    exact = em.mean_pairwise_distance(pts).mean
    runs = np.array(
        [
            em.mean_pairwise_distance(
                pts, pair_budget=800, rng=np.random.default_rng(1000 + i)
            ).mean
            for i in range(200)
        ]
    )
    stderr = runs.std(ddof=1) / np.sqrt(len(runs))
    assert abs(runs.mean() - exact) <= 3 * stderr
    assert not em.mean_pairwise_distance(pts, pair_budget=800, rng=rng).exact


def test_sampled_mean_standard_error_matches_its_spread():
    rng = np.random.default_rng(15)
    pts = rng.normal(size=(300, 4))
    assert em.mean_pairwise_distance(pts).se == 0.0  # exact: no sampling error
    results = [
        em.mean_pairwise_distance(pts, pair_budget=800, rng=np.random.default_rng(2000 + i))
        for i in range(200)
    ]
    spread = np.std([r.mean for r in results], ddof=1)
    # se of 200 runs has ~5% relative error; its mean must match the runs' spread
    assert np.mean([r.se for r in results]) == pytest.approx(spread, rel=0.2)


def test_equal_exact_sets_run_the_kernel_once_and_sampled_sets_take_their_own_streams():
    pts = np.random.default_rng(14).normal(size=(60, 4))
    small, big = np.arange(3, 15), np.arange(10, 50)  # 66 pairs exact, 780 sampled
    sets = [small, small.copy(), small[::-1], big, big.copy()]
    rngs = [np.random.default_rng(k) for k in range(len(sets))]
    with mock.patch.object(em, "all_pair_distances", wraps=em.all_pair_distances) as kernel:
        results = em.set_mean_distances(pts, sets, rngs, pair_budget=100)
    assert kernel.call_count == 2  # ``small`` once, and once in the other order
    assert results[0] == results[1] == em.mean_pairwise_distance(pts[small], 100)
    assert results[2] == em.mean_pairwise_distance(pts[small[::-1]], 100)
    for k in (3, 4):
        assert not results[k].exact
        assert results[k] == em.mean_pairwise_distance(pts[big], 100, np.random.default_rng(k))
    assert results[3] != results[4]


def test_sampling_requires_rng():
    pts = np.random.default_rng(13).normal(size=(200, 3))
    with pytest.raises(ValueError):
        em.mean_pairwise_distance(pts, pair_budget=10, rng=None)


def test_pair_budget_below_one_rejected():
    pts = np.random.default_rng(14).normal(size=(10, 3))
    for budget in (0, -1):
        with pytest.raises(ValueError, match="pair budget"):
            em.pair_sample_distances(pts, budget, np.random.default_rng(0))


def test_sampled_pairs_uniform_over_distinct_pairs():
    # points 0, 1, 3, 7 on a line: the 6 pair distances are all different,
    # so each distance identifies its pair
    pts = np.array([0.0, 1.0, 3.0, 7.0])
    draws = np.concatenate(
        [em.pair_sample_distances(pts, 5, np.random.default_rng(s))[0] for s in range(4000)]
    )
    assert not np.any(draws == 0.0)
    values, counts = np.unique(draws, return_counts=True)
    assert values.tolist() == [1.0, 2.0, 3.0, 4.0, 6.0, 7.0]
    p = 1 / 6
    band = 4 * np.sqrt(p * (1 - p) / len(draws))
    assert np.all(np.abs(counts / len(draws) - p) <= band)


# 70_000 pairs span a full 2**16-pair chunk and a partial one
@pytest.mark.parametrize("n,budget", [(3, 2), (2001, 5000), (100_000, 5000), (100_000, 70_000)])
def test_int32_pair_draw_keeps_the_int64_stream(n, budget):
    # reference: the same draw with numpy's default int64 indices
    pts = np.random.default_rng(16).normal(size=(n, 4))
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        dists, exact = em.pair_sample_distances(pts, budget, rng)
        i = ref_rng.integers(0, n, size=budget)
        j = ref_rng.integers(0, n - 1, size=budget)
        j += j >= i
        diff = pts[i] - pts[j]
        assert not exact
        assert np.array_equal(dists, np.sqrt(np.einsum("ij,ij->i", diff, diff)))
        assert rng.random() == ref_rng.random()


def full_draw_distances(pts, budget, rng):
    """Reference sample: all first indices in one int64 draw, then all second ones."""
    n = len(pts)
    i = rng.integers(0, n, size=budget)
    j = rng.integers(0, n - 1, size=budget)
    j += j >= i
    diff = pts[i] - pts[j]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


# each budget ends in a partial chunk of the sampler's draws
@pytest.mark.parametrize("budget", [5000, 8193, 20_000, 70_001])
def test_sampled_mean_and_se_match_a_full_draw_bit_for_bit(budget):
    pts = np.random.default_rng(17).normal(size=(3000, 4))
    for seed in range(3):
        ref = full_draw_distances(pts, budget, np.random.default_rng(seed))
        r = em.mean_pairwise_distance(pts, budget, np.random.default_rng(seed))
        assert (r.mean, r.pair_count_used, r.exact) == (float(ref.mean()), budget, False)
        assert r.se == float(ref.std()) / budget**0.5


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox])
def test_chunked_pair_draws_keep_the_stream_of_other_generators(bit_generator):
    pts = np.random.default_rng(18).normal(size=(5000, 3))
    for seed in range(2):
        rng, ref_rng = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        dists, exact = em.pair_sample_distances(pts, 20_001, rng)
        assert not exact
        assert np.array_equal(dists, full_draw_distances(pts, 20_001, ref_rng))
        assert rng.random() == ref_rng.random()


def test_sampled_mean_holds_one_float_per_budgeted_pair():
    pts = np.random.default_rng(19).normal(size=(200_000, 4))
    budget = 2_000_000  # 16 MB of distances
    tracemalloc.start()
    try:
        em.mean_pairwise_distance(pts, budget, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
