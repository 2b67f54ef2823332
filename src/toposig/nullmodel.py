"""Random-set null model, scaling-law fit, and per-group z-score tests.

The null model draws R random node sets per size N, records mean and spread
of their mean inter-point distances, and fits sigma(N) = a * N**(-alpha) by
least squares on logs.  A labeled group of N_data nodes with mean distance
mu_data then gets z = (mu_data - mu_r) / sigma(N_data); |z| > 2 (strict)
flags p < 0.05.

Every random draw derives its stream from (master seed, task identity), so
results are reproducible and independent of evaluation order.  A call's
random sets, or its label groups of every level, are scored as one batch by
``embedding.set_mean_distances``, which picks the exact pair kernel.
``analyze`` runs the whole chain, embedding -> null -> z, as ``toposig all`` does.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .embedding import DEFAULT_PAIR_BUDGET, EmbeddingModel, MeanDistanceResult
from .embedding import fit_embedding, set_mean_distances, transform_all

__all__ = [
    "DEFAULT_SET_SIZES",
    "DEFAULT_SETS_PER_SIZE",
    "FIT_MIN_SIZES",
    "NullFitError",
    "NullSamplingConfig",
    "NullSampleRow",
    "NullSamples",
    "NullModel",
    "GroupTestResult",
    "SignificanceSummary",
    "Analysis",
    "analyze",
    "sample_null",
    "fit_null_scaling",
    "group_mean_distance",
    "z_score",
    "score_groups",
    "summarize",
    "write_null_samples_tsv",
    "write_null_model_tsv",
    "read_null_model_tsv",
    "write_results_tsv",
    "read_results_tsv",
    "write_summary_tsv",
]

DEFAULT_SET_SIZES = (10, 20, 50, 100, 200, 500)
DEFAULT_SETS_PER_SIZE = 100

# fitting a and alpha needs this many sizes with nonzero spread
FIT_MIN_SIZES = 3

_HIST_CLAMP = 20
SIGNIFICANCE_Z = 2.0


class NullFitError(ValueError):
    """No usable null: too few usable sample sizes, or an a or sigma(N) not finite and above 0."""


@dataclass(frozen=True)
class NullSamplingConfig:
    set_sizes: tuple[int, ...]
    sets_per_size: int = DEFAULT_SETS_PER_SIZE
    pair_budget: int = DEFAULT_PAIR_BUDGET
    seed: int = 0

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.set_sizes)
        if not sizes:
            raise ValueError("no set sizes given")
        if any(s < 2 for s in sizes):
            raise ValueError("set sizes must all be >= 2")
        if list(sizes) != sorted(set(sizes)):
            raise ValueError("set sizes must be strictly ascending")
        if self.sets_per_size < 2:
            raise ValueError("need at least 2 sets per size")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        object.__setattr__(self, "set_sizes", sizes)


@dataclass(frozen=True)
class NullSampleRow:
    set_size: int
    mean: float
    std: float
    reps: int


@dataclass(frozen=True)
class NullSamples:
    rows: tuple[NullSampleRow, ...]


@dataclass(frozen=True)
class NullModel:
    """mu_r plus fitted sigma(N) = a * N**(-alpha)."""

    mu_r: float
    a: float
    alpha: float
    fit_residual: float

    def sigma(self, n: int) -> float:
        try:
            return self.a * float(n) ** (-self.alpha)
        except OverflowError:  # N**(-alpha) past the float range
            return math.inf


@dataclass(frozen=True)
class GroupTestResult:
    level: str
    group: str
    n_data: int
    mu_data: float
    z: float
    p_value: float
    significant: bool


@dataclass(frozen=True)
class SignificanceSummary:
    n_groups: int
    n_significant: int
    n_low: int  # significant with z < 0
    n_high: int  # significant with z > 0
    histogram: tuple[tuple[int, int, int], ...]  # (bin_low, bin_high, count)


def _task_rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def _key_rng(seed: int, key: str) -> np.random.Generator:
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=16).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return _task_rng(seed, 2, *words)


def sample_null(points: np.ndarray, config: NullSamplingConfig) -> NullSamples:
    """Draw R random node sets per size and record mean/std of their set means.

    Each (size, repetition) task owns a stream seeded from (seed, size index,
    repetition index): it draws the set, then the set's pairs when they are
    sampled.  So the output is bit-reproducible for a given config.
    """
    n_points = len(points)
    if n_points < max(config.set_sizes):
        raise ValueError(
            f"largest set size {max(config.set_sizes)} exceeds point count {n_points}"
        )
    reps = config.sets_per_size
    sets, rngs = [], []
    for size_index, set_size in enumerate(config.set_sizes):
        for rep in range(reps):
            rngs.append(rng := _task_rng(config.seed, 1, size_index, rep))
            sets.append(rng.choice(n_points, size=set_size, replace=False))
    means = np.array([r.mean for r in set_mean_distances(points, sets, rngs, config.pair_budget)])
    return NullSamples(rows=tuple(
        NullSampleRow(set_size, float(m.mean()), float(m.std(ddof=1)), reps)
        for set_size, m in zip(config.set_sizes, means.reshape(-1, reps))
    ))


def fit_null_scaling(samples: NullSamples) -> NullModel:
    """Fit mu_r and the power law sigma(N) = a * N**(-alpha).

    mu_r is the rep-weighted mean of the per-size means.  Sizes with zero
    spread are excluded from the log-log least-squares fit, which needs at
    least ``FIT_MIN_SIZES`` usable sizes.  Raises :class:`NullFitError` when
    the fitted a, or sigma at the smallest or largest fitted size, is not
    finite and above 0.
    """
    usable = [r for r in samples.rows if r.std > 0.0]
    if len(usable) < FIT_MIN_SIZES:
        raise NullFitError(
            f"need at least {FIT_MIN_SIZES} sizes with nonzero spread, got {len(usable)}"
        )
    weights = np.array([r.reps for r in samples.rows], dtype=np.float64)
    means = np.array([r.mean for r in samples.rows])
    mu_r = float((weights * means).sum() / weights.sum())
    log_n = np.log(np.array([r.set_size for r in usable], dtype=np.float64))
    log_s = np.log(np.array([r.std for r in usable]))
    slope, log_a = map(float, np.polyfit(log_n, log_s, 1))
    alpha = -slope
    try:
        a = math.exp(log_a)
    except OverflowError:
        a = math.inf
    if not 0.0 < a < math.inf:
        raise NullFitError(f"alpha {alpha:.9g} fits a = exp({log_a:.9g}), not finite and above 0")
    residuals = log_s - (log_a - alpha * log_n)
    model = NullModel(
        mu_r=mu_r,
        a=a,
        alpha=alpha,
        fit_residual=float(np.sqrt(np.mean(residuals**2))),
    )
    sizes = [r.set_size for r in usable]
    for n in (min(sizes), max(sizes)):  # sigma(N) is monotone: between them it is usable too
        _usable_sigma(model, n)
    return model


def _usable_sigma(model: NullModel, n: int) -> float:
    """sigma(``n``); raises :class:`NullFitError` when it is not finite and above 0."""
    sigma = model.sigma(n)
    if not 0.0 < sigma < math.inf:
        raise NullFitError(f"sigma(N) = {sigma:.9g} at N = {n} is not finite and above 0")
    return sigma


def _level_means(
    points: np.ndarray,
    memberships: Mapping[str, Mapping[str, np.ndarray]],
    pair_budget: int,
    seed: int,
) -> tuple[dict[tuple[str, str], MeanDistanceResult], list[tuple[str, str]]]:
    """Means of the groups of 2 or more nodes, keyed (level, key) by level then
    key, in one batch; and the (level, key) of the groups of one node or none.
    Each group samples pairs on a stream from (seed, key), so order changes nothing.
    """
    groups = {(level, key): ids for level, membership in memberships.items()
              for key, ids in sorted(membership.items())}
    scored = {group: ids for group, ids in groups.items() if len(ids) >= 2}
    rngs = [_key_rng(seed, key) for _, key in scored]
    means = set_mean_distances(points, list(scored.values()), rngs, pair_budget)
    return dict(zip(scored, means)), [group for group in groups if group not in scored]


def _check_some_group_scores(memberships: Mapping[str, Mapping[str, np.ndarray]]) -> None:
    """Raises ValueError unless some group in ``memberships`` has 2 or more nodes."""
    if all(len(ids) < 2 for groups in memberships.values() for ids in groups.values()):
        raise ValueError("no label group has 2 or more nodes to score")


def group_mean_distance(
    points: np.ndarray,
    membership: Mapping[str, np.ndarray],
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    seed: int = 0,
) -> tuple[dict[str, MeanDistanceResult], list[str]]:
    """Mean inter-node distance per group of 2 or more nodes, by key; the rest are skipped."""
    if not membership:
        raise ValueError("empty membership")
    means, skipped = _level_means(points, {"": membership}, pair_budget, seed)
    return {key: mean for (_, key), mean in means.items()}, [key for _, key in skipped]


def z_score(
    model: NullModel,
    group: str,
    level: str,
    n_data: int,
    mu_data: float,
) -> GroupTestResult:
    """Score one group against the null; significance is strict |z| > 2."""
    if n_data < 2:
        raise ValueError("group needs at least 2 nodes")
    z = (mu_data - model.mu_r) / _usable_sigma(model, n_data)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return GroupTestResult(
        level=level,
        group=group,
        n_data=n_data,
        mu_data=mu_data,
        z=float(z),
        p_value=float(p),
        significant=abs(z) > SIGNIFICANCE_Z,
    )


def score_groups(
    points: np.ndarray,
    null: NullModel,
    memberships: Mapping[str, Mapping[str, np.ndarray]],
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    seed: int = 0,
) -> tuple[list[GroupTestResult], list[str], list[float]]:
    """z per group of 2 or more nodes of each level in ``memberships``, {level: {key: node ids}}.

    Returns the results by level, then key; the skipped groups as ``level:key``;
    and se / sigma(N) of each group that took the sampled pair path.  Every
    level's groups are scored in one batch, so one exact kernel scores them all.
    """
    _check_some_group_scores(memberships)
    means, skipped = _level_means(points, memberships, pair_budget, seed)
    results, se_fracs = [], []
    for (level, key), result in means.items():
        n_data = len(memberships[level][key])
        results.append(z_score(null, key, level, n_data, result.mean))
        if not result.exact:
            se_fracs.append(result.se / null.sigma(n_data))
    return results, [f"{level}:{key}" for level, key in skipped], se_fracs


@dataclass(frozen=True)
class Analysis:
    model: EmbeddingModel
    samples: NullSamples
    null: NullModel
    results: list[GroupTestResult]


def analyze(features: np.ndarray, memberships: Mapping[str, Mapping[str, np.ndarray]],
            config: NullSamplingConfig) -> Analysis:
    """Embed ``features``, fit the null under ``config`` and z-score ``memberships``
    as ``toposig all`` does: every setting ``config`` lacks is the CLI default.
    A config with too few set sizes to fit is rejected before any work."""
    if len(config.set_sizes) < FIT_MIN_SIZES:
        raise ValueError(f"{len(config.set_sizes)} set sizes given; fitting alpha"
                         f" needs at least {FIT_MIN_SIZES}")
    _check_some_group_scores(memberships)
    model = fit_embedding(features)
    points = transform_all(model, features)
    samples = sample_null(points, config)
    null = fit_null_scaling(samples)
    results, _, _ = score_groups(points, null, memberships, config.pair_budget, config.seed)
    return Analysis(model, samples, null, results)


def summarize(results: Sequence[GroupTestResult]) -> SignificanceSummary:
    """Tail counts plus a unit-width z histogram clamped at +/-20.

    The tails split the significant groups by the sign of z.
    """
    if not results:
        raise ValueError("no results to summarize")
    z = np.array([r.z for r in results])
    bins = np.clip(np.floor(z).astype(np.int64), -_HIST_CLAMP, _HIST_CLAMP - 1) + _HIST_CLAMP
    counts = np.bincount(bins, minlength=2 * _HIST_CLAMP)
    histogram = tuple(
        (lo, lo + 1, int(counts[lo + _HIST_CLAMP])) for lo in range(-_HIST_CLAMP, _HIST_CLAMP)
    )
    return SignificanceSummary(
        n_groups=len(results),
        n_significant=int(sum(r.significant for r in results)),
        n_low=sum(r.significant and r.z < 0 for r in results),
        n_high=sum(r.significant and r.z > 0 for r in results),
        histogram=histogram,
    )


# ---------------------------------------------------------------------------
# TSV artifacts
# ---------------------------------------------------------------------------

def write_null_samples_tsv(samples: NullSamples, out: TextIO) -> None:
    out.write("# N\tmean\tstd\tR\n")
    for row in samples.rows:
        out.write(f"{row.set_size}\t{row.mean:.9g}\t{row.std:.9g}\t{row.reps}\n")


# each handoff TSV's columns, and the type its fields are read as
_NULL_MODEL_COLUMNS = {"mu_r": float, "a": float, "alpha": float, "residual": float}
_RESULTS_COLUMNS = {"level": str, "group": str, "n_nodes": int, "mean_dist": float, "z": float,
                    "p": float, "significant": str}


def _data_rows(lines: Iterable[str], columns: Mapping[str, type]) -> Iterator[list]:
    """The fields of each line that is not blank or a ``#`` comment, read as their
    columns' types; a line whose fields do not fit raises a ValueError naming it."""
    for line_no, raw in enumerate(lines, start=1):
        if not (line := raw.strip()) or line.startswith("#"):
            continue
        fields = line.split("\t")
        try:
            if len(fields) != len(columns):
                raise ValueError(f"{len(fields)} fields, expected {len(columns)}:"
                                 f" {', '.join(columns)}")
            row = [kind(text) for kind, text in zip(columns.values(), fields)]
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        yield row


def write_null_model_tsv(model: NullModel, out: TextIO) -> None:
    """17 significant digits, so the reloaded model scores groups losslessly."""
    out.write("# " + "\t".join(_NULL_MODEL_COLUMNS) + "\n")
    out.write(
        f"{model.mu_r:.17g}\t{model.a:.17g}\t{model.alpha:.17g}\t{model.fit_residual:.17g}\n"
    )


def read_null_model_tsv(lines: Iterable[str]) -> NullModel:
    """The first model row; one that does not parse raises ValueError naming its line."""
    for row in _data_rows(lines, _NULL_MODEL_COLUMNS):
        model = NullModel(*row)
        for name, value in vars(model).items():
            if not math.isfinite(value) or (name == "a" and value <= 0.0):
                raise ValueError(f"null model field {name} is {value}: each must be finite, a > 0")
        return model
    raise ValueError("no null model row")


def write_results_tsv(results: Sequence[GroupTestResult], out: TextIO) -> None:
    """Rows sorted by z ascending; z has 17 significant digits, so it reloads losslessly."""
    out.write("# " + "\t".join(_RESULTS_COLUMNS) + "\n")
    for r in sorted(results, key=lambda r: (r.z, r.level, r.group)):
        out.write(
            f"{r.level}\t{r.group}\t{r.n_data}\t{r.mu_data:.9g}\t{r.z:.17g}"
            f"\t{r.p_value:.9g}\t{int(r.significant)}\n"
        )


def read_results_tsv(lines: Iterable[str]) -> list[GroupTestResult]:
    """Every result row; one that does not parse raises ValueError naming its line."""
    rows = _data_rows(lines, _RESULTS_COLUMNS)
    return [GroupTestResult(*row[:-1], row[-1] == "1") for row in rows]


def write_summary_tsv(summary: SignificanceSummary, out: TextIO) -> None:
    out.write(f"# groups={summary.n_groups}\tsignificant={summary.n_significant}")
    out.write(f"\tz_below_-2={summary.n_low}\tz_above_+2={summary.n_high}\n")
    out.write("# bin_low\tbin_high\tcount\n")
    for lo, hi, count in summary.histogram:
        out.write(f"{lo}\t{hi}\t{count}\n")
