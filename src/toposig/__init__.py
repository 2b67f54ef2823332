"""toposig: geographic-clustering tests for router-level network topologies.

Pipeline: ingest a topology + geolocation labels, compute four per-node
degree-neighborhood statistics, whiten them with PCA so Euclidean distance
realizes the Mahalanobis metric, fit a random-set null model for mean
inter-node distance, and z-score each label group against it.
"""

__version__ = "0.1.0"

from .embedding import (
    EmbeddingModel,
    MeanDistanceResult,
    distance,
    fit_embedding,
    mean_pairwise_distance,
    transform,
    transform_all,
)
from .features import (
    FeatureTable,
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
    "FeatureTable",
    "GlobalDegreeStats",
    "global_degree_stats",
    "compute_all_features",
    "EmbeddingModel",
    "MeanDistanceResult",
    "fit_embedding",
    "transform",
    "transform_all",
    "distance",
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
    "summarize",
    "GravityParams",
    "make_gravity_params",
    "gen_er",
    "gen_pref_attach",
    "gen_spatial_gravity",
]
