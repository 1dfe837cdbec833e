"""Correlation-matrix PCA, complete-linkage clustering, and cluster profiling
for regional indicator tables, with a deterministic reporting pipeline."""

from .concordance import adjusted_rand_index, contingency, rand_index
from .config import PipelineConfig, load_pipeline_config
from .errors import NumericalError, PcaClusterError, ValidationError
from .hclust import (
    Dendrogram,
    DistanceMatrix,
    Merge,
    Partition,
    cluster_variables,
    complete_linkage,
    cut,
    euclidean_distances,
)
from .ingest import (
    IndicatorTable,
    ParseOptions,
    impute_means,
    load_table,
    standardize,
    write_table,
)
from .linalg import EigenDecomposition, correlation_matrix, jacobi_eigen
from .pca import (
    CumulativeThreshold,
    Fixed,
    Kaiser,
    PcaModel,
    coefficients,
    fit_pca,
    loadings,
    scores,
    select_components,
)
from .pipeline import RunArtifacts, run_pipeline
from .profiles import ProfileRow, format_profile_table, profile
from .synth import SyntheticSpec, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "CumulativeThreshold",
    "Dendrogram",
    "DistanceMatrix",
    "EigenDecomposition",
    "Fixed",
    "IndicatorTable",
    "Kaiser",
    "Merge",
    "NumericalError",
    "ParseOptions",
    "Partition",
    "PcaClusterError",
    "PcaModel",
    "PipelineConfig",
    "ProfileRow",
    "RunArtifacts",
    "SyntheticSpec",
    "ValidationError",
    "adjusted_rand_index",
    "cluster_variables",
    "coefficients",
    "complete_linkage",
    "contingency",
    "correlation_matrix",
    "cut",
    "euclidean_distances",
    "fit_pca",
    "format_profile_table",
    "generate_synthetic",
    "impute_means",
    "jacobi_eigen",
    "load_pipeline_config",
    "load_table",
    "loadings",
    "profile",
    "rand_index",
    "run_pipeline",
    "scores",
    "select_components",
    "standardize",
    "write_table",
]
