"""Per-node degree-neighborhood summary statistics.

Four statistics per node i with neighbors j:

* ``k``            -- degree
* ``avg_nbr_deg``  -- (1/k_i) * sum_j k_j
* ``local_var``    -- (1/(k_i - 1)) * sum_j (k_j - <k>)^2, spread of neighbor
                      degrees around the *global* mean degree
* ``local_corr``   -- (1/(sigma_k^2 * k_i)) * sum_j (k_i - <k>)(k_j - <k>),
                      a per-node assortativity score

Degenerate conventions keep every row finite: a degree-0 node is all zeros,
a degree-1 node has local_var = 0 (the 1/(k-1) factor is undefined), and a
zero global degree spread forces local_corr = 0.  ``compute_all_features``
returns one read-only (n, 4) float64 array, the form ``embedding`` takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .graph import Graph, tsv_rows

__all__ = [
    "FEATURE_COLUMNS",
    "GlobalDegreeStats",
    "global_degree_stats",
    "compute_all_features",
    "write_features_tsv",
]

FEATURE_COLUMNS = ("k", "avg_nbr_deg", "local_var", "local_corr")


@dataclass(frozen=True)
class GlobalDegreeStats:
    """Mean degree and sample degree standard deviation (n-1 normalization)."""

    mean_degree: float
    degree_std: float
    n: int


def global_degree_stats(graph: Graph) -> GlobalDegreeStats:
    if graph.n < 2:
        raise ValueError("degree spread needs at least 2 nodes")
    degrees = graph.degrees
    return GlobalDegreeStats(
        mean_degree=float(degrees.mean()),
        degree_std=float(degrees.std(ddof=1)),
        n=graph.n,
    )


def compute_all_features(graph: Graph) -> np.ndarray:
    """Read-only (n, 4) float64 features of all nodes; deterministic, O(n + m) time.

    The neighbor sums walk the CSR one node range at a time
    (:meth:`Graph.node_ranges`), so the transient memory is O(n + range), not
    O(m).  ``bincount`` adds each node's neighbors in row order either way,
    so the sums have the same bits as one whole-graph pass.
    """
    stats = global_degree_stats(graph)
    n = graph.n
    k = graph.degrees.astype(np.float64)
    mean = stats.mean_degree

    values = np.zeros((n, len(FEATURE_COLUMNS)))
    values[:, 0] = k
    nbr_sum, nbr_sqdev, corr = values[:, 1], values[:, 2], values[:, 3]
    for nodes, span in graph.node_ranges():
        size = nodes.stop - nodes.start
        row = np.repeat(np.arange(size), graph.degrees[nodes])
        nbr_deg = k[graph.indices[span]]
        nbr_sum[nodes] = np.bincount(row, weights=nbr_deg, minlength=size)
        nbr_deg -= mean
        nbr_deg *= nbr_deg
        nbr_sqdev[nodes] = np.bincount(row, weights=nbr_deg, minlength=size)

    # the columns are finished in place, each operation as in the formulas
    safe_k = np.maximum(k, 1.0)
    if stats.degree_std > 0.0:
        # sum_j (k_j - <k>) = nbr_sum - k * <k>
        np.subtract(nbr_sum, k * mean, out=corr)
        corr *= k - mean
        corr /= stats.degree_std**2 * safe_k
        corr[k == 0] = 0.0
    nbr_sum /= safe_k  # avg_nbr_deg; a degree-0 node's sum is 0
    nbr_sqdev /= np.maximum(k - 1.0, 1.0)  # local_var
    nbr_sqdev[k <= 1] = 0.0
    values.flags.writeable = False
    return values


# ---------------------------------------------------------------------------
# TSV artifact
# ---------------------------------------------------------------------------

def write_features_tsv(
    graph: Graph, values: np.ndarray, stats: GlobalDegreeStats, out: TextIO
) -> None:
    """Rows sorted by node name (= id order), floats at 9 significant digits.

    Rows are formatted one node range of :meth:`Graph.node_ranges` at a time.
    """
    out.write("# node\tk\tavg_nbr_deg\tlocal_var\tlocal_corr\n")
    out.write(
        "# conventions: k=0 row all zeros; k=1 sets local_var=0; "
        "zero degree spread sets local_corr=0\n"
    )
    out.write(
        f"# mean_degree={stats.mean_degree:.9g}\tdegree_std={stats.degree_std:.9g}"
        f"\tn={stats.n}\n"
    )
    for sl, _ in graph.node_ranges():
        block = values[sl]
        columns = [graph.names[sl], list(map(str, block[:, 0].astype(np.int64).tolist()))]
        columns += ([format(v, ".9g") for v in block[:, c].tolist()] for c in (1, 2, 3))
        out.write(tsv_rows(columns))
