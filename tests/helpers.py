"""Shared test fixtures and independent oracles.

REF_* constants are fixed reference figures for a 19-indicator regional
analysis, frozen here as regression fixtures: an eigenvalue spectrum
with its variance accounting, and a first-component coefficient column.

oracle_complete_linkage is the independent check for the clustering
implementation: it re-derives every inter-cluster distance from the
original pairwise distances at every step (no incremental updates),
with the same documented tie-break (lexicographically smallest merged
leaf set).

oracle_dendrogram_error and oracle_cut are the loops over the merge rows
that Dendrogram's whole-array checks and cut replaced: the first error's
message, and the partition from member lists merged step by step.

oracle_profile is the per-column profile that the whole-block one
replaced: each (cluster, indicator) cell computes its own moments from a
1-D column. profile must match it bit for bit.

manifest_config_digests runs the configs of tools/manifests.py in-process
and digests the artifacts whose bytes must not depend on the BLAS kernel.

plant_two_cpus and TWO_CPUS give a test about forking a two-CPU affinity
mask, so that its run forks also when the tests are pinned to one CPU.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import os
import sys
from pathlib import Path

import numpy as np

from pcacluster.config import load_pipeline_config
from pcacluster.errors import NumericalError
from pcacluster.hclust import DistanceMatrix
from pcacluster.ingest import IndicatorTable, standardize
from pcacluster.pipeline import run_pipeline

MANIFESTS_TOOL = Path(__file__).resolve().parents[1] / "tools" / "manifests.py"

# a run forks only with two CPUs or more in its affinity mask: the same
# patch as plant_two_cpus, as code to put in front of a fresh interpreter's
# -c program
TWO_CPUS = "import os\nos.sched_getaffinity = lambda pid: {0, 1}\n"


def plant_two_cpus(monkeypatch) -> None:
    """os.sched_getaffinity reports CPUs 0 and 1 until the test ends."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


# the CSVs that carry the correlation matrix, the eigenvectors or the
# scores, whose last digits may differ under another OpenBLAS kernel
KERNEL_DEPENDENT_CSVS = frozenset({
    "variance_table.csv", "coefficients.csv", "loadings.csv", "scores.csv",
    "dendrogram_components.csv", "dendrogram_variables.csv", "plots/loadings.csv",
    "plots/biplot.csv",
})

REF_EIGENVALUES = [
    5.832579887, 3.232571219, 2.300940659, 1.644107304, 1.273934146,
    0.970767333, 0.896241187, 0.649316999, 0.502682237, 0.487771042,
    0.365864420, 0.234788679, 0.179103669, 0.129516751, 0.103789464,
    0.083736033, 0.076707881, 0.030332739, 0.005248349,
]

REF_VARIANCE_PERCENT = [
    30.69778888, 17.01353273, 12.11021399, 8.65319634, 6.70491656,
    5.10930176, 4.71705888, 3.41745789, 2.64569599, 2.56721601,
    1.92560221, 1.23572989, 0.94265089, 0.68166711, 0.54626034,
    0.44071596, 0.40372569, 0.15964599, 0.02762289,
]

REF_CUMULATIVE_PERCENT = [
    30.69779, 47.71132, 59.82154, 68.47473, 75.17965,
    80.28895, 85.00601, 88.42347, 91.06916, 93.63638,
    95.56198, 96.79771, 97.74036, 98.42203, 98.96829,
    99.40901, 99.81273, 99.97238, 100.00000,
]

REF_COEFFICIENTS_F1 = [
    0.336, 0.365, 0.239, 0.324, 0.167, 0.303, -0.253, 0.302, -0.108,
    0.235, 0.032, -0.057, -0.237, -0.147, 0.064, 0.304, -0.103,
    -0.212, -0.124,
]


def model_from_spectrum(values):
    """PcaModel over a given eigenvalue spectrum (identity eigenvectors)."""
    from pcacluster.linalg import EigenDecomposition
    from pcacluster.pca import PcaModel

    vals = np.asarray(values, dtype=float)
    p = vals.size
    return PcaModel(EigenDecomposition(vals, np.eye(p)), p)


def make_table(values, standardized: bool = False, prefix: str = "R") -> IndicatorTable:
    grid = np.asarray(values, dtype=float)
    n, p = grid.shape
    return IndicatorTable(
        region_labels=tuple(f"{prefix}{i + 1}" for i in range(n)),
        indicator_labels=tuple(f"V{j + 1}" for j in range(p)),
        values=grid,
        standardized=standardized,
    )


def random_standardized_table(seed: int, n: int = 85, p: int = 19) -> IndicatorTable:
    rng = np.random.default_rng(seed)
    return standardize(make_table(rng.standard_normal((n, p))))


def oracle_complete_linkage(d: DistanceMatrix) -> list[tuple[frozenset, frozenset, float]]:
    """Brute-force agglomeration; returns (members_a, members_b, height) per step."""
    n = d.n

    def dist(i: int, j: int) -> float:
        i, j = min(i, j), max(i, j)
        return d.condensed[i * n - i * (i + 1) // 2 + j - i - 1]

    clusters: list[frozenset[int]] = [frozenset([i]) for i in range(d.n)]
    merges = []
    while len(clusters) > 1:
        best_key = None
        best_pair = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                height = max(
                    dist(i, j) for i in clusters[a] for j in clusters[b]
                )
                key = (height, tuple(sorted(clusters[a] | clusters[b])))
                if best_key is None or key < best_key:
                    best_key = key
                    best_pair = (a, b)
        a, b = best_pair
        merges.append((clusters[a], clusters[b], best_key[0]))
        merged = clusters[a] | clusters[b]
        clusters = [c for idx, c in enumerate(clusters) if idx not in (a, b)]
        clusters.append(merged)
    return merges


def dendrogram_as_member_merges(dend) -> list[tuple[frozenset, frozenset, float]]:
    """Convert merge rows to (members, members, height) for oracle comparison."""
    members: list[frozenset[int]] = []

    def resolve(node: int) -> frozenset[int]:
        return frozenset([-node - 1]) if node < 0 else members[node - 1]

    out = []
    for left_id, right_id, height, _ in dend.merges.tolist():
        left = resolve(int(left_id))
        right = resolve(int(right_id))
        members.append(left | right)
        out.append((left, right, height))
    return out


def same_merge_sequence(actual, expected) -> bool:
    """Step-by-step equality, unordered within each pair, exact heights."""
    if len(actual) != len(expected):
        return False
    for (a1, a2, ah), (e1, e2, eh) in zip(actual, expected):
        if ah != eh or {a1, a2} != {e1, e2}:
            return False
    return True


def oracle_dendrogram_error(merges, n: int) -> str | None:
    """The message of the first failed check in a walk over the merge rows
    of n leaves (each step's left node, right node, then height), or None."""
    rows = np.asarray(merges, dtype=float).tolist()
    seen: set[float] = set()
    for step, (left, right, height, _) in enumerate(rows, start=1):
        for node in (left, right):
            name = int(node) if node.is_integer() else node
            if node in seen:
                return f"node {name} merged twice"
            if node % 1 or node >= step or node == 0 or node < -n:
                return f"node id {name} invalid at step {step}"
            seen.add(node)
        if step > 1 and height < rows[step - 2][2] - 1e-12:
            return "merge heights must be non-decreasing"
    if rows and rows[-1][3] != n:
        return "final merge must contain every leaf"
    return None


def oracle_cut(dend, k: int) -> tuple[int, ...]:
    """cut's assignment: member lists merged over the first n-k steps, ids
    in the order of each cluster's first leaf."""
    n = dend.n_leaves
    members = {-(i + 1): [i] for i in range(n)}
    for step, (left, right, _, _) in enumerate(dend.merges[: n - k].tolist(), start=1):
        members[step] = members.pop(left) + members.pop(right)
    assignment = [0] * n
    for cluster_id, leaves in enumerate(sorted(members.values(), key=min), start=1):
        for leaf in leaves:
            assignment[leaf] = cluster_id
    return tuple(assignment)


def _oracle_sd(values: np.ndarray) -> float | None:
    if values.size < 2:
        return None
    return float(values.std(ddof=1))


def _oracle_skewness(values: np.ndarray) -> float | None:
    n = values.size
    if n < 3:
        return None
    centered = values - values.mean()
    with np.errstate(over="ignore", invalid="ignore"):
        m2 = (centered * centered).mean()
        if m2 == 0.0:
            return None
        g1 = float((centered * centered * centered).mean() / m2**1.5)
    return g1 * math.sqrt(n * (n - 1)) / (n - 2)


def _oracle_excess_kurtosis(values: np.ndarray) -> float | None:
    n = values.size
    if n < 4:
        return None
    sd = float(values.std(ddof=1))
    if sd == 0.0:
        return None
    z = (values - values.mean()) / sd
    z4 = float(((z * z) * (z * z)).sum())
    return n * (n + 1) / ((n - 1) * (n - 2) * (n - 3)) * z4 - 3 * (n - 1) ** 2 / (
        (n - 2) * (n - 3)
    )


def oracle_profile(table: IndicatorTable, part) -> np.ndarray:
    """profile's k x p x 5 grid computed one 1-D column at a time (no input
    checks), NaN where a statistic is undefined."""
    grand_means = table.values.mean(axis=0)
    grid = np.full((part.k, table.n_indicators, 5), np.nan)
    for cluster_id in range(1, part.k + 1):
        block = table.values[[i for i, c in enumerate(part.assignment) if c == cluster_id], :]
        for j, indicator in enumerate(table.indicator_labels):
            column = block[:, j]
            mean = float(column.mean())
            grand = float(grand_means[j])
            stats = {
                "average": mean,
                "standard_deviation": _oracle_sd(column),
                "skewness": _oracle_skewness(column),
                "kurtosis": _oracle_excess_kurtosis(column),
                "to_country_average_percent": (mean / grand - 1.0) * 100.0 if grand != 0.0 else None,
            }
            for name in ("skewness", "to_country_average_percent"):
                value = stats[name]
                if value is not None and not math.isfinite(value):
                    raise NumericalError(f"cluster {cluster_id}, indicator {indicator!r}: "
                                         f"{name} overflows float64")
            grid[cluster_id - 1, j] = [math.nan if v is None else v for v in stats.values()]
    return grid


def manifests_tool():
    """tools/manifests.py as a module, sys.path as it was."""
    spec = importlib.util.spec_from_file_location("manifests_tool", MANIFESTS_TOOL)
    tool = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    try:
        spec.loader.exec_module(tool)  # it puts perfbench/ on sys.path
    finally:
        sys.path[:] = path
    return tool


def kernel_independent_digest(manifest: Path) -> str:
    """The SHA-256 of the manifest's lines for every artifact but the
    KERNEL_DEPENDENT_CSVS."""
    kept = [line for line in manifest.read_text(encoding="utf-8").splitlines(keepends=True)
            if line.rstrip("\n").split("  ", 1)[1] not in KERNEL_DEPENDENT_CSVS]
    return hashlib.sha256("".join(kept).encode("utf-8")).hexdigest()


def manifest_config_digests(checkout: Path, out: Path) -> dict[str, str]:
    """Write the configs of tools/manifests.py (CONFIGS, then the perfbench
    workloads) into out, reading the sample of the checkout, and run each
    in this process. Per config: its kernel_independent_digest."""
    return {name: kernel_independent_digest(run_pipeline(load_pipeline_config(conf)).manifest_path)
            for name, conf in manifests_tool().write_configs(checkout, out).items()}
