"""Whitened principal-component space over the rows of a float64 feature array.

Fitting centers the data, eigendecomposes the sample covariance with the
library symmetric solver and keeps components whose eigenvalue exceeds
``DEFAULT_EIG_TOL`` (1e-12) times the largest.  Scores are divided by
sqrt(eigenvalue), so the plain Euclidean norm between transformed points
realizes the Mahalanobis distance of the training covariance.

Exact pair distances come from ``all_pair_distances``, a numpy kernel that
takes scipy's ``pdist`` arithmetic step for step, so it gives ``pdist``'s
bits without loading ``scipy.spatial``.  ``set_mean_distances``, which
scores every batch of node sets, uses ``pdist`` itself past
``PDIST_MIN_PAIRS`` exact pairs; the choice never changes a bit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

__all__ = [
    "DegenerateFeaturesError",
    "EmbeddingModel",
    "MeanDistanceResult",
    "DEFAULT_EIG_TOL",
    "DEFAULT_PAIR_BUDGET",
    "PDIST_MIN_PAIRS",
    "fit_embedding",
    "transform_all",
    "all_pair_distances",
    "mean_pairwise_distance",
    "pair_sample_distances",
    "set_mean_distances",
    "save_model",
]

DEFAULT_EIG_TOL = 1e-12
DEFAULT_PAIR_BUDGET = 2_000_000
# Exact pairs of one batch past which pdist replaces the numpy kernel.  Set
# from the break-even on a 2-core VM (numpy 2.4.6, scipy 1.17.1, one BLAS
# thread): loading scipy.spatial costs a process 0.35-0.47 s of wall time, as
# much CPU, and 33 MB of peak RSS, and pdist takes 3-5 ns a pair at
# N = 500-2000 against the kernel's 10-17 ns, so the load repays itself past
# some 30M-65M pairs.
PDIST_MIN_PAIRS = 50_000_000
_BLOCK_CELLS = 1 << 14  # pairs per block: 128 KB of float64 per dimension

# exact kernel: (N, d) points to the C(N,2) condensed distances, pdist's order
PairKernel = Callable[[np.ndarray], np.ndarray]


class DegenerateFeaturesError(ValueError):
    """All feature columns constant: no covariance structure to whiten."""


@dataclass(frozen=True)
class EmbeddingModel:
    """Fitted whitening transform; rows of ``whitening`` are eigvec/sqrt(eigval)."""

    mean: np.ndarray
    covariance: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    retained: int
    whitening: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.mean)


def fit_embedding(features: np.ndarray) -> EmbeddingModel:
    """Fit the whitened component space on the rows of a feature array."""
    data = np.asarray(features, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("feature data must be 2-d")
    n, d = data.shape
    if n < 5:
        raise ValueError(f"need at least 5 rows to fit, got {n}")
    mean = data.mean(axis=0)
    centered = data - mean
    if not np.any(centered.std(axis=0) > 0.0):
        raise DegenerateFeaturesError("degenerate feature table: every column is constant")
    covariance = centered.T @ centered / (n - 1)
    ascending, vectors = np.linalg.eigh(covariance)
    eigenvalues = np.maximum(ascending[::-1], 0.0)
    vectors = vectors[:, ::-1]
    # canonical signs: the largest-magnitude component of each eigenvector is positive
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(d)]
    eigenvectors = vectors * np.where(pivots < 0, -1.0, 1.0)
    retained = int(np.sum(eigenvalues > DEFAULT_EIG_TOL * eigenvalues[0]))
    scaled = eigenvectors[:, :retained] / np.sqrt(eigenvalues[:retained])
    # a fixed C layout, so the products in ``transform_all`` do not depend on
    # the memory layout ``eigh`` returned its vectors in
    whitening = np.ascontiguousarray(scaled.T)
    return EmbeddingModel(
        mean=mean,
        covariance=covariance,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        retained=retained,
        whitening=whitening,
    )


def transform_all(model: EmbeddingModel, features: np.ndarray) -> np.ndarray:
    return (np.asarray(features, dtype=np.float64) - model.mean) @ model.whitening.T


def all_pair_distances(points: np.ndarray) -> np.ndarray:
    """Distances between all pairs of rows of (N, d) ``points``, as ``pdist`` returns them.

    The same arithmetic as ``pdist``, so the same bits: for each pair the
    squared coordinate differences are summed in dimension order, then one
    square root.  Rows are taken in blocks of at least 16 against all later
    points, short and wide, in one preallocated buffer; each row's part
    right of the diagonal goes to the condensed array.
    """
    columns = np.ascontiguousarray(np.asarray(points, dtype=np.float64).T)
    dims, n = columns.shape
    out = np.empty(n * (n - 1) // 2)
    if n < 2:
        return out
    rows = min(n - 1, max(16, _BLOCK_CELLS // n))
    buffer = np.empty(dims * rows * (n - 1))
    start = 0
    for r0 in range(0, n - 1, rows):
        r1 = min(r0 + rows, n - 1)
        h, w = r1 - r0, n - 1 - r0
        squares = buffer[: dims * h * w].reshape(dims, h, w)
        # the block's own coordinates are laid out first: numpy subtracts
        # two rows several times faster than it broadcasts a column
        np.copyto(squares, columns[:, r0:r1, None])
        np.subtract(squares, columns[:, None, r0 + 1 :], out=squares)
        squares *= squares
        total = squares[0]
        for square in squares[1:]:
            total += square
        stop = start + h * w - h * (h - 1) // 2
        block = out[start:stop]
        np.concatenate([line[row:] for row, line in enumerate(total)], out=block)
        np.sqrt(block, out=block)
        start = stop
    return out


@dataclass(frozen=True)
class MeanDistanceResult:
    mean: float
    pair_count_used: int
    exact: bool
    se: float = 0.0  # pair-sampling standard error of ``mean``; 0 when exact


def pair_sample_distances(
    points: np.ndarray,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    rng: np.random.Generator | None = None,
    kernel: PairKernel = all_pair_distances,
) -> tuple[np.ndarray, bool]:
    """Distances over all pairs, or over a sample when C(N,2) exceeds the budget.

    All pairs come from ``kernel``: ``all_pair_distances`` or scipy's
    ``pdist``, which give the same bits.

    The sample draws ``pair_budget`` pairs uniformly, with replacement, from
    the distinct unordered pairs, so its mean is an unbiased estimate of the
    all-pairs mean.  It takes the same draws from ``rng`` as one call for all
    first indices and one for all second indices, but holds only a chunk of
    them at a time: the memory is one float64 per budgeted pair.
    """
    if pair_budget < 1:
        raise ValueError(f"pair budget must be at least 1, got {pair_budget}")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n = len(points)
    if n < 2:
        raise ValueError("need at least 2 points")
    if n * (n - 1) // 2 <= pair_budget:
        return kernel(points), True
    if rng is None:
        raise ValueError("pair sampling requires an explicit rng stream")
    # numpy draws an int32 range below 2**32 from whole 32-bit words of the
    # stream, as it does for int64, so draws in chunks continue the stream
    # exactly as one whole draw does.  ``replay`` gives the first indices
    # chunk by chunk while ``rng``, run past them, gives the second ones.
    chunk = min(1 << 13, pair_budget)  # 4-d points: 0.5 MB of buffers beside the 16 MB default
    starts = range(0, pair_budget, chunk)
    sizes = [min(chunk, pair_budget - start) for start in starts]
    replay = copy.deepcopy(rng)
    for size in sizes:
        rng.integers(0, n, size=size, dtype=np.int32)
    out = np.empty(pair_budget, dtype=np.float64)
    first, second = np.empty((2, chunk, points.shape[1]))
    for start, size in zip(starts, sizes):
        i = replay.integers(0, n, size=size, dtype=np.int32)
        j = rng.integers(0, n - 1, size=size, dtype=np.int32)
        j += j >= i  # skip the self-pair: j is uniform over the other n - 1 points
        a, b = first[:size], second[:size]
        # every index is in range, so "clip" clips nothing; it spares the
        # temporary that the default "raise" mode gathers ``out=`` through
        np.take(points, i, axis=0, out=a, mode="clip")
        np.take(points, j, axis=0, out=b, mode="clip")
        a -= b
        np.einsum("ij,ij->i", a, a, out=out[start : start + size])
    np.sqrt(out, out=out)
    return out, False


def mean_pairwise_distance(
    points: np.ndarray,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    rng: np.random.Generator | None = None,
    kernel: PairKernel = all_pair_distances,
) -> MeanDistanceResult:
    """Mean inter-point distance, exact when C(N,2) fits the pair budget.

    A sampled mean carries its standard error, std / sqrt(pairs), computed in
    place over the distances: the steps of ``ndarray.std``, so the same bits,
    without its copy of them.
    """
    distances, exact = pair_sample_distances(points, pair_budget, rng, kernel)
    mean = distances.mean()  # over the whole array: numpy's pairwise sum
    count = len(distances)
    se = 0.0
    if not exact:
        distances -= mean
        distances *= distances
        se = float(np.sqrt(distances.sum() / count)) / count**0.5
    return MeanDistanceResult(mean=float(mean), pair_count_used=count, exact=exact, se=se)


def set_mean_distances(
    points: np.ndarray,
    sets: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator],
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> list[MeanDistanceResult]:
    """``mean_pairwise_distance`` of each set of row indices, on its own stream, in input order.

    Sets past the pair budget are sampled first, before ``scipy.spatial`` may
    load; the distinct rest share one kernel, ``pdist`` once their C(N,2) sum
    passes ``PDIST_MIN_PAIRS``.  Neither the order nor the kernel changes a bit.
    """
    points = np.asarray(points, dtype=np.float64)
    pairs = [len(s) * (len(s) - 1) // 2 for s in sets]

    def score(k: int, kernel: PairKernel = all_pair_distances) -> MeanDistanceResult:
        return mean_pairwise_distance(points[np.asarray(sets[k])], pair_budget, rngs[k], kernel)

    results = {k: score(k) for k, c in enumerate(pairs) if c > pair_budget}
    # an exact mean draws nothing from its stream, so equal exact sets share the first one's
    first, alike = {}, {}
    for k in (k for k, c in enumerate(pairs) if c <= pair_budget):
        s = sets[k]
        same = alike.setdefault((len(s), *s[:1], *s[-1:]), [])
        same.append(k)
        first[k] = next(j for j in same if np.array_equal(sets[j], s))
    distinct = [k for k, j in first.items() if j == k]
    if sum(pairs[k] for k in distinct) <= PDIST_MIN_PAIRS:
        kernel = all_pair_distances
    else:  # imported here: scipy.spatial is slow to load
        from scipy.spatial.distance import pdist as kernel
    results.update((k, score(k, kernel)) for k in distinct)
    results.update((k, results[j]) for k, j in first.items())
    return [results[k] for k in range(len(sets))]


# ---------------------------------------------------------------------------
# model file (for people; 17 significant digits)
# ---------------------------------------------------------------------------

_MODEL_HEADER = "toposig-embedding-v1"


def _fmt_row(values: Iterable[float]) -> str:
    return "\t".join(f"{v:.17g}" for v in values)


def save_model(model: EmbeddingModel, out: TextIO) -> None:
    d = model.dim
    out.write(f"{_MODEL_HEADER}\n")
    out.write(f"dim\t{d}\n")
    out.write(f"retained\t{model.retained}\n")
    out.write(f"eig_tol\t{DEFAULT_EIG_TOL:.17g}\n")
    out.write(f"mean\t{_fmt_row(model.mean)}\n")
    for row in model.covariance:
        out.write(f"cov\t{_fmt_row(row)}\n")
    out.write(f"eigenvalues\t{_fmt_row(model.eigenvalues)}\n")
    for row in model.eigenvectors:
        out.write(f"eigenvectors\t{_fmt_row(row)}\n")
