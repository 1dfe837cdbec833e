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

Importing pcacluster loads numpy and this module only. An exported name,
or a submodule such as pcacluster.svgplot, loads its home module on first
use, so an error inside a submodule shows up at that first use, not at
import.
"""

import importlib
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

__version__ = "0.1.0"

# home module -> the names it exports here
_EXPORTS = {
    "concordance": ("adjusted_rand_index", "contingency", "rand_index"),
    "config": ("PipelineConfig", "load_pipeline_config"),
    "errors": ("NumericalError", "PcaClusterError", "ValidationError"),
    "hclust": ("Dendrogram", "DistanceMatrix", "Partition", "cluster_variables",
               "complete_linkage", "cut", "euclidean_distances"),
    "ingest": ("IndicatorTable", "ParseOptions", "impute_means", "load_table", "standardize",
               "write_table"),
    "linalg": ("EigenDecomposition", "correlation_matrix", "jacobi_eigen"),
    "pca": ("CumulativeThreshold", "Fixed", "Kaiser", "PcaModel", "coefficients", "fit_pca",
            "loadings", "scores", "select_components"),
    "pipeline": ("RunArtifacts", "run_pipeline"),
    "profiles": ("format_profile_table", "profile"),
    "synth": ("SyntheticSpec", "generate_synthetic"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "svgplot", "tables"}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    # not bound here: a name reads its home module's binding on each access,
    # so a function patched there is the one this package returns
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOMES:
        return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *_SUBMODULES})
