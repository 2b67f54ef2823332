import io
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toposig import nullmodel as nm
from toposig.embedding import mean_pairwise_distance


def line_points(coords):
    return np.asarray(coords, dtype=np.float64)[:, None]


# ---------------------------------------------------------------------------
# null sampling
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="^no set sizes given$"):
        nm.NullSamplingConfig(set_sizes=())
    with pytest.raises(ValueError):
        nm.NullSamplingConfig(set_sizes=(1, 5))
    with pytest.raises(ValueError):
        nm.NullSamplingConfig(set_sizes=(20, 10))
    with pytest.raises(ValueError):
        nm.NullSamplingConfig(set_sizes=(5,), sets_per_size=1)
    with pytest.raises(ValueError):
        nm.NullSamplingConfig(set_sizes=(5,), seed=-3)


def test_identical_points_give_zero_mean_and_std():
    pts = np.tile([2.0, -1.0], (30, 1))
    cfg = nm.NullSamplingConfig(set_sizes=(3, 5), sets_per_size=10, seed=1)
    samples = nm.sample_null(pts, cfg)
    for row in samples.rows:
        assert row.mean == 0.0 and row.std == 0.0


def test_set_size_exceeding_points_rejected():
    pts = np.zeros((4, 2))
    cfg = nm.NullSamplingConfig(set_sizes=(10,), sets_per_size=5)
    with pytest.raises(ValueError):
        nm.sample_null(pts, cfg)


def test_same_seed_bit_identical():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(50, 3))
    cfg = nm.NullSamplingConfig(set_sizes=(5, 10), sets_per_size=20, seed=7)
    a = nm.sample_null(pts, cfg)
    b = nm.sample_null(pts, cfg)
    assert a == b
    c = nm.sample_null(pts, nm.NullSamplingConfig(set_sizes=(5, 10), sets_per_size=20, seed=8))
    assert a != c


def test_three_point_draws_match_hand_enumeration():
    # points on a line at 0, 1, 2: pair distances {0,1}->1, {0,2}->2, {1,2}->1
    pts = line_points([0.0, 1.0, 2.0])
    exact = {frozenset({0, 1}): 1.0, frozenset({0, 2}): 2.0, frozenset({1, 2}): 1.0}
    seed = 5
    cfg = nm.NullSamplingConfig(set_sizes=(2,), sets_per_size=2, seed=seed)
    samples = nm.sample_null(pts, cfg)

    # replay the documented stream derivation (seed, domain=1, size index, rep)
    replayed = []
    for rep in range(2):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1, 0, rep]))
        chosen = frozenset(int(i) for i in rng.choice(3, size=2, replace=False))
        replayed.append(exact[chosen])
        assert replayed[-1] in {1.0, 2.0}
    row = samples.rows[0]
    assert row.mean == pytest.approx(np.mean(replayed), abs=1e-15)
    assert row.std == pytest.approx(np.std(replayed, ddof=1), abs=1e-15)


def test_rows_are_mean_and_std_of_replayed_set_means():
    # oracle: replay each (seed, 1, size index, rep) stream through mean_pairwise_distance;
    # at a pair budget of 10 the 20-node sets (190 pairs) take the sampled path
    pts = np.random.default_rng(3).normal(size=(60, 2))
    for budget in (10, 1000):
        cfg = nm.NullSamplingConfig(set_sizes=(4, 20), sets_per_size=15, pair_budget=budget, seed=2)
        for size_index, row in enumerate(nm.sample_null(pts, cfg).rows):
            means = []
            for rep in range(15):
                rng = np.random.default_rng(np.random.SeedSequence([2, 1, size_index, rep]))
                chosen = rng.choice(60, size=row.set_size, replace=False)
                means.append(mean_pairwise_distance(pts[chosen], budget, rng).mean)
            assert row.mean == np.mean(means)
            assert row.std == np.std(means, ddof=1)


def test_enumeration_bounds_sampled_mean():
    # exhaustive oracle: mean over all C(P, N) subsets brackets the sampled mean
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(8, 2))
    for n_size in (2, 3, 4):
        all_means = [
            mean_pairwise_distance(pts[list(combo)]).mean
            for combo in itertools.combinations(range(8), n_size)
        ]
        truth = float(np.mean(all_means))
        cfg = nm.NullSamplingConfig(set_sizes=(n_size,), sets_per_size=50, seed=0)
        row = nm.sample_null(pts, cfg).rows[0]
        assert abs(row.mean - truth) <= 4 * row.std / math.sqrt(row.reps)


# ---------------------------------------------------------------------------
# scaling-law fit
# ---------------------------------------------------------------------------

def exact_samples(a, alpha, sizes, mean=0.9):
    return nm.NullSamples(
        tuple(nm.NullSampleRow(int(n), mean, float(a * n**-alpha), 100) for n in sizes)
    )


def test_exact_power_law_recovered():
    model = nm.fit_null_scaling(exact_samples(5.0, 1.0, (10, 20, 50, 100)))
    assert model.a == pytest.approx(5.0, abs=1e-10)
    assert model.alpha == pytest.approx(1.0, abs=1e-10)
    assert model.fit_residual < 1e-12
    assert model.mu_r == pytest.approx(0.9)


def test_noisy_power_law_recovered_within_tolerance():
    rng = np.random.default_rng(123)
    sizes = np.unique(np.round(np.logspace(1, 3, 10)).astype(int))
    for alpha_true, a_true in ((0.5, 16.45), (1.0, 5.0)):
        factors = rng.normal(1.0, 0.05, size=len(sizes))
        rows = tuple(
            nm.NullSampleRow(int(n), 0.9, float(a_true * n**-alpha_true * f), 100)
            for n, f in zip(sizes, factors)
        )
        model = nm.fit_null_scaling(nm.NullSamples(rows))
        assert abs(model.alpha - alpha_true) <= 0.15
        assert abs(model.a - a_true) / a_true <= 0.10
        # cross-check against a straight log-log regression
        slope, intercept = np.polyfit(
            np.log([r.set_size for r in rows]), np.log([r.std for r in rows]), 1
        )
        assert model.alpha == pytest.approx(-slope, rel=1e-10)
        assert model.a == pytest.approx(math.exp(intercept), rel=1e-10)


def log_linear_samples(log_a, alpha, sizes):
    """Rows whose spread is exactly exp(log_a) * N**(-alpha), computed in logs."""
    return nm.NullSamples(tuple(
        nm.NullSampleRow(n, 0.9, math.exp(log_a - alpha * math.log(n)), 100) for n in sizes
    ))


@pytest.mark.parametrize("alpha", [300.0, -300.0], ids=["a-overflows", "a-underflows"])
def test_fitted_amplitude_not_finite_and_above_zero_is_rejected(alpha):
    # every spread near N = 100 is a float, but a = 100**alpha is past the float range
    samples = log_linear_samples(alpha * math.log(100), alpha, (100, 101, 102))
    with pytest.raises(nm.NullFitError, match=r"fits a = exp\(-?1381\.\d+\), not finite"):
        nm.fit_null_scaling(samples)


def test_sigma_overflowing_at_the_largest_fitted_size_is_rejected():
    # a = 1e-100 to alpha -230 fits spreads up to 6e290, but sigma(N) = a * N**230
    # takes N**230, which overflows at N = 50
    samples = log_linear_samples(math.log(1e-100), -230.0, (10, 20, 50))
    with pytest.raises(nm.NullFitError, match=r"sigma\(N\) = inf at N = 50 is not finite"):
        nm.fit_null_scaling(samples)


def test_zero_std_rows_excluded():
    rows = (
        nm.NullSampleRow(10, 0.9, 0.5, 100),
        nm.NullSampleRow(20, 0.9, 0.0, 100),
        nm.NullSampleRow(50, 0.9, 0.1, 100),
        nm.NullSampleRow(100, 0.9, 0.05, 100),
    )
    model = nm.fit_null_scaling(nm.NullSamples(rows))
    assert math.isfinite(model.alpha)
    all_zero = nm.NullSamples(tuple(nm.NullSampleRow(n, 0.0, 0.0, 10) for n in (5, 10, 20)))
    with pytest.raises(nm.NullFitError):
        nm.fit_null_scaling(all_zero)


def test_free_fit_needs_three_sizes():
    with pytest.raises(nm.NullFitError):
        nm.fit_null_scaling(exact_samples(2.0, 1.0, (10, 20)))


# ---------------------------------------------------------------------------
# group means
# ---------------------------------------------------------------------------

def test_two_node_group_is_single_pair():
    pts = line_points([0.0, 7.0, 100.0])
    results, skipped = nm.group_mean_distance(pts, {"g": np.array([0, 1])})
    assert results["g"].mean == 7.0 and results["g"].exact
    assert skipped == []


def test_groups_independent_of_evaluation_order():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(500, 3))
    ga = np.arange(0, 300)
    gb = np.arange(150, 450)
    budget = 100  # force sampling so the per-group streams matter
    r1, _ = nm.group_mean_distance(pts, {"a": ga, "b": gb}, pair_budget=budget, seed=5)
    r2, _ = nm.group_mean_distance(pts, {"b": gb, "a": ga}, pair_budget=budget, seed=5)
    assert r1 == r2
    solo_a, _ = nm.group_mean_distance(pts, {"a": ga}, pair_budget=budget, seed=5)
    assert solo_a["a"] == r1["a"]


def test_group_mean_matches_allpairs_loop():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(80, 4))
    ids = np.array(sorted(rng.choice(80, size=50, replace=False)))
    results, _ = nm.group_mean_distance(pts, {"g": ids}, pair_budget=10**9)
    brute = np.mean(
        [np.linalg.norm(pts[a] - pts[b]) for a, b in itertools.combinations(ids, 2)]
    )
    assert results["g"].mean == pytest.approx(float(brute), abs=1e-12)


def test_small_groups_skipped_and_reported():
    pts = np.random.default_rng(10).normal(size=(20, 2))
    membership = {"big": np.arange(10), "tiny": np.array([3])}
    results, skipped = nm.group_mean_distance(pts, membership)
    assert list(results) == ["big"]
    assert skipped == ["tiny"]


def test_empty_membership_rejected():
    with pytest.raises(ValueError):
        nm.group_mean_distance(np.zeros((5, 2)), {})


# ---------------------------------------------------------------------------
# z-scores
# ---------------------------------------------------------------------------

PAPER_NULL = nm.NullModel(mu_r=0.877654, a=16.45, alpha=1.0, fit_residual=0.0)


def test_group_at_null_mean_scores_zero():
    r = nm.z_score(PAPER_NULL, "XX", "country", 100, 0.877654)
    assert r.z == 0.0 and r.p_value == 1.0 and not r.significant


def test_published_null_constants_arithmetic():
    # sigma(100) = 16.45 / 100 = 0.1645; mu_data - mu_r = 0.1645 -> z = 1
    r = nm.z_score(PAPER_NULL, "XX", "country", 100, 1.042154)
    assert r.z == pytest.approx(1.0, abs=1e-9)
    assert r.p_value == pytest.approx(2 * (1 - 0.8413447460685429), rel=1e-9)


def test_significance_boundary_is_strict():
    flat = nm.NullModel(mu_r=0.0, a=1.0, alpha=0.0, fit_residual=0.0)
    assert not nm.z_score(flat, "g", "country", 10, 2.0).significant
    assert nm.z_score(flat, "g", "country", 10, 2.0001).significant
    assert nm.z_score(flat, "g", "country", 10, -2.0001).significant


def test_z_monotone_in_group_size():
    model = nm.NullModel(mu_r=0.5, a=2.0, alpha=0.7, fit_residual=0.0)
    zs = [nm.z_score(model, "g", "country", n, 0.9).z for n in (10, 50, 200, 1000)]
    assert all(b > a for a, b in zip(zs, zs[1:]))


@pytest.mark.parametrize("memberships", [{}, {"country": {"a": np.array([3])}}],
                         ids=["no-group", "one-node-group"])
def test_memberships_with_no_group_to_score_are_rejected_before_any_work(memberships):
    x = np.random.default_rng(16).normal(size=(40, 4))
    config = nm.NullSamplingConfig(set_sizes=(5, 10, 20), sets_per_size=5)
    failing = {"side_effect": AssertionError("the chain ran")}
    message = r"^no label group has 2 or more nodes to score$"
    with mock.patch.object(nm, "fit_embedding", **failing), \
            mock.patch.object(nm, "sample_null", **failing):
        with pytest.raises(ValueError, match=message):
            nm.analyze(x, memberships, config)
    with mock.patch.object(nm, "set_mean_distances", **failing):
        with pytest.raises(ValueError, match=message):
            nm.score_groups(x, PAPER_NULL, memberships)


def test_too_few_set_sizes_are_rejected_before_any_work():
    # a plain ValueError (bad config), not the NullFitError of a degenerate null
    x = np.random.default_rng(16).normal(size=(40, 4))
    config = nm.NullSamplingConfig(set_sizes=(10, 20), sets_per_size=5)
    failing = {"side_effect": AssertionError("the chain ran")}
    message = r"^2 set sizes given; fitting alpha needs at least 3$"
    with mock.patch.object(nm, "fit_embedding", **failing), \
            mock.patch.object(nm, "sample_null", **failing):
        with pytest.raises(ValueError, match=message) as info:
            nm.analyze(x, {"country": {"a": np.arange(10)}}, config)
    assert not isinstance(info.value, nm.NullFitError)


def test_z_needs_two_nodes():
    with pytest.raises(ValueError):
        nm.z_score(PAPER_NULL, "g", "country", 1, 0.9)


@given(st.floats(0.51, 5.0), st.integers(2, 10_000))
@settings(max_examples=50)
def test_p_value_in_unit_interval(mu, n):
    r = nm.z_score(PAPER_NULL, "g", "country", n, mu)
    assert 0.0 <= r.p_value <= 1.0
    assert r.significant == (abs(r.z) > 2)


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------

def make_result(z):
    return nm.GroupTestResult("country", f"g{z}", 10, 0.9, z, 1.0, abs(z) > 2)


def test_summary_counts():
    summary = nm.summarize([make_result(z) for z in (-5.0, -4.0, 0.0, 3.0)])
    assert summary.n_groups == 4
    assert summary.n_significant == 3
    assert summary.n_low == 2
    assert summary.n_high == 1
    assert sum(c for _, _, c in summary.histogram) == 4


def test_summary_counts_survive_the_results_tsv_round_trip():
    # z just past +/-2 keeps its value, its sign and its significant flag
    # through results.tsv, so the histogram agrees with the tail counts
    zs = [-2.0000000001, 0.5, 2.0000000001]
    out = io.StringIO()
    nm.write_results_tsv([make_result(z) for z in zs], out)
    again = nm.read_results_tsv(io.StringIO(out.getvalue()))
    assert [r.z for r in again] == zs
    summary = nm.summarize(again)
    assert (summary.n_significant, summary.n_low, summary.n_high) == (2, 1, 1)
    hist = {lo: count for lo, _, count in summary.histogram}
    assert (hist[-3], hist[-2], hist[0], hist[2]) == (1, 0, 1, 1)


def test_summary_histogram_bins_and_clamping():
    summary = nm.summarize([make_result(z) for z in (-30.0, -0.5, 0.5, 19.5, 25.0)])
    hist = dict(((lo, hi), c) for lo, hi, c in summary.histogram)
    assert hist[(-20, -19)] == 1  # z = -30 clamped into the lowest bin
    assert hist[(-1, 0)] == 1
    assert hist[(0, 1)] == 1
    assert hist[(19, 20)] == 2  # 19.5 lands there, 25 clamps there
    assert summary.histogram[0][0] == -20 and summary.histogram[-1][1] == 20


def test_summary_needs_results():
    with pytest.raises(ValueError):
        nm.summarize([])


# ---------------------------------------------------------------------------
# TSV round trips
# ---------------------------------------------------------------------------

def test_null_samples_tsv_round_trip():
    samples = exact_samples(4.0, 0.8, (10, 30, 90))
    out = io.StringIO()
    nm.write_null_samples_tsv(samples, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "# N\tmean\tstd\tR"
    rows = [line.split("\t") for line in lines[1:]]
    assert len(rows) == len(samples.rows)
    for a, (n, mean, std, reps) in zip(samples.rows, rows):
        assert a.set_size == int(n) and a.reps == int(reps)
        assert a.mean == pytest.approx(float(mean), rel=1e-8)
        assert a.std == pytest.approx(float(std), rel=1e-8)


def test_null_model_tsv_round_trip():
    model = nm.fit_null_scaling(exact_samples(5.0, 1.0, (10, 20, 50)))
    out = io.StringIO()
    nm.write_null_model_tsv(model, out)
    again = nm.read_null_model_tsv(io.StringIO(out.getvalue()))
    assert (again.mu_r, again.a, again.alpha, again.fit_residual) == (
        model.mu_r, model.a, model.alpha, model.fit_residual
    )


@pytest.mark.parametrize("row", ["1\t2\t3", "1\t2\t3\t4\t5"])
def test_null_model_tsv_row_of_wrong_width_names_the_fields(row):
    with pytest.raises(ValueError, match="expected 4: mu_r, a, alpha, residual"):
        nm.read_null_model_tsv(io.StringIO(f"# mu_r\ta\talpha\tresidual\n{row}\n"))


@pytest.mark.parametrize("row, field", [
    ("nan\t2\t0.5\t0", "mu_r"),
    ("1\tinf\t0.5\t0", "a"),
    ("1\t2\t-inf\t0", "alpha"),
    ("1\t2\t0.5\tnan", "fit_residual"),
    ("1\t0\t0.5\t0", "a"),
    ("1\t-2\t0.5\t0", "a"),
], ids=["mu_r-nan", "a-inf", "alpha-inf", "residual-nan", "a-zero", "a-negative"])
def test_null_model_tsv_rejects_unusable_fields(row, field):
    with pytest.raises(ValueError, match=f"null model field {field} is"):
        nm.read_null_model_tsv(io.StringIO(f"# mu_r\ta\talpha\tresidual\n{row}\n"))


def test_results_tsv_sorted_by_z():
    results = [make_result(z) for z in (3.0, -5.0, 0.0)]
    out = io.StringIO()
    nm.write_results_tsv(results, out)
    again = nm.read_results_tsv(io.StringIO(out.getvalue()))
    assert [r.z for r in again] == sorted(r.z for r in results)
    assert again[0].significant and not again[1].significant
