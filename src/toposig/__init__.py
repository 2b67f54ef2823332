"""toposig: geographic-clustering tests for router-level network topologies.

Pipeline: ingest a topology + geolocation labels, compute four per-node
degree-neighborhood statistics, whiten them with PCA so Euclidean distance
realizes the Mahalanobis metric, fit a random-set null model for mean
inter-node distance, and z-score each label group against it.

Importing toposig sets ``OPENBLAS_NUM_THREADS=1`` in ``os.environ`` (so
processes it starts inherit it) unless ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is already set: a user's own
thread setting wins.  toposig's BLAS work is ``embed``'s two products of
(n, 4) and (4, 4) arrays and ``synth``'s small matrix-vector products,
which gain nothing from a second thread, while OpenBLAS's idle worker spins
a core for about 0.26 s of CPU per ``all`` run.  OpenBLAS reads the
variable when numpy first loads it, so a caller that imports numpy before
toposig keeps its own BLAS threads.  No output depends on the thread count.
"""

import os

if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before any submodule imports numpy

__version__ = "0.1.0"

from .embedding import (
    EmbeddingModel,
    MeanDistanceResult,
    fit_embedding,
    mean_pairwise_distance,
    transform_all,
)
from .features import (
    GlobalDegreeStats,
    compute_all_features,
    global_degree_stats,
)
from .graph import (
    EdgeList,
    GeoLabels,
    Graph,
    build_graph,
    parse_geo,
    parse_links,
)
from .nullmodel import (
    GroupTestResult,
    NullModel,
    NullSamples,
    NullSamplingConfig,
    SignificanceSummary,
    fit_null_scaling,
    group_mean_distance,
    sample_null,
    score_groups,
    summarize,
    z_score,
)
from .synth import (
    GravityParams,
    gen_er,
    gen_pref_attach,
    gen_spatial_gravity,
    make_gravity_params,
)

__all__ = [
    "__version__",
    "EdgeList",
    "Graph",
    "GeoLabels",
    "parse_links",
    "parse_geo",
    "build_graph",
    "GlobalDegreeStats",
    "global_degree_stats",
    "compute_all_features",
    "EmbeddingModel",
    "MeanDistanceResult",
    "fit_embedding",
    "transform_all",
    "mean_pairwise_distance",
    "NullSamplingConfig",
    "NullSamples",
    "NullModel",
    "GroupTestResult",
    "SignificanceSummary",
    "sample_null",
    "fit_null_scaling",
    "group_mean_distance",
    "z_score",
    "score_groups",
    "summarize",
    "GravityParams",
    "make_gravity_params",
    "gen_er",
    "gen_pref_attach",
    "gen_spatial_gravity",
]
