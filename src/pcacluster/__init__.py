"""Correlation-matrix PCA, complete-linkage clustering, and cluster profiling
for regional indicator tables, with a deterministic reporting pipeline.

Importing pcacluster loads numpy's BLAS with one thread, unless numpy is
already loaded or one of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
OMP_NUM_THREADS is set. The method's algebra is small (a p x p correlation
matrix and its eigensolve, one n x p by p x k score product), and at these
sizes a second OpenBLAS thread shortens no run: it busy-waits for about
0.1 s after each call. On a 400 x 120 table on a 2-core Xeon the CLI used
a median 1.01 s of CPU with two threads and 0.64 s with one, at the same
wall time within run-to-run noise; the artifacts' bytes are the same
either way. To choose another count, set OPENBLAS_NUM_THREADS (or import
numpy first). The environment is left as the caller set it, for this
process and its children.
"""

import os
import sys

if "numpy" not in sys.modules and not {
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    # OpenBLAS reads its thread count once, when numpy loads it
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

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
