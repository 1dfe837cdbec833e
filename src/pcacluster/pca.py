"""Principal-components model on the correlation matrix.

Variance accounting, retained-component selection, and the three
derived matrices: coefficients (unit eigenvectors), loadings
(coefficients scaled by the square root of their eigenvalue, equal to
the variable-score correlations), and scores (observations projected
onto the component axes).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .ingest import IndicatorTable
from .linalg import EigenDecomposition, correlation_matrix, jacobi_eigen
from .tables import format_float, write_rows


@dataclass(frozen=True)
class Kaiser:
    """Retain components with eigenvalue strictly greater than 1."""


@dataclass(frozen=True)
class Fixed:
    """Retain exactly k components (clamped to [1, p])."""

    k: int


@dataclass(frozen=True)
class CumulativeThreshold:
    """Retain the smallest k whose cumulative variance percent reaches the threshold."""

    percent: float


SelectionRule = Kaiser | Fixed | CumulativeThreshold


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Fitted components model; immutable, k is attached via with_components."""

    eigen: EigenDecomposition
    p: int
    indicator_labels: tuple[str, ...]
    variance_percent: np.ndarray
    cumulative_percent: np.ndarray
    k: int | None = None

    def with_components(self, k: int) -> PcaModel:
        if not 1 <= k <= self.p:
            raise ValidationError(f"component count {k} outside [1, {self.p}]")
        return replace(self, k=k)

    def _require_k(self) -> int:
        if self.k is None:
            raise ValidationError("component count not selected; call select_components")
        return self.k


@dataclass(frozen=True, eq=False)
class LoadingMatrix:
    """Per-variable component weights; kind distinguishes the two scalings."""

    kind: str  # "coefficients" or "loadings"
    entries: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("coefficients", "loadings"):
            raise ValidationError(f"unknown loading kind {self.kind!r}")


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Observation coordinates in the component basis."""

    entries: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]


def component_names(k: int) -> tuple[str, ...]:
    return tuple(f"f{j + 1}" for j in range(k))


def fit_pca(table: IndicatorTable) -> PcaModel:
    """Eigendecompose the correlation matrix and tabulate explained variance."""
    if not table.standardized:
        raise ValidationError("fit_pca requires a standardized table")
    n, p = table.values.shape
    if n <= p:
        raise ValidationError(f"need more regions than indicators (n={n}, p={p})")
    eigen = jacobi_eigen(correlation_matrix(table))
    variance_percent = eigen.eigenvalues / p * 100.0
    return PcaModel(
        eigen=eigen,
        p=p,
        indicator_labels=table.indicator_labels,
        variance_percent=variance_percent,
        cumulative_percent=np.cumsum(variance_percent),
    )


def select_components(model: PcaModel, rule: SelectionRule = Kaiser()) -> int:
    """Number of components to retain under the given rule.

    Kaiser counts eigenvalues strictly above 1 and floors at 1 so that a
    flat spectrum still yields a usable model.
    """
    if isinstance(rule, Kaiser):
        return max(1, int(np.sum(model.eigen.eigenvalues > 1.0)))
    if isinstance(rule, Fixed):
        return min(max(rule.k, 1), model.p)
    if isinstance(rule, CumulativeThreshold):
        reached = np.flatnonzero(model.cumulative_percent >= rule.percent)
        return int(reached[0]) + 1 if reached.size else model.p
    raise ValidationError(f"unknown selection rule {rule!r}")


def coefficients(model: PcaModel) -> LoadingMatrix:
    """First k unit eigenvector columns (sign-normalized)."""
    k = model._require_k()
    return LoadingMatrix(
        kind="coefficients",
        entries=model.eigen.eigenvectors[:, :k].copy(),
        row_labels=model.indicator_labels,
        col_labels=component_names(k),
    )


def loadings(model: PcaModel) -> LoadingMatrix:
    """Coefficients scaled columnwise by sqrt(eigenvalue).

    Entry (i, j) equals the sample correlation between variable i and
    score column j.
    """
    k = model._require_k()
    scale = np.sqrt(np.maximum(model.eigen.eigenvalues[:k], 0.0))
    return LoadingMatrix(
        kind="loadings",
        entries=model.eigen.eigenvectors[:, :k] * scale,
        row_labels=model.indicator_labels,
        col_labels=component_names(k),
    )


def scores(model: PcaModel, table: IndicatorTable) -> ScoreMatrix:
    """Project the standardized table onto the retained k component axes."""
    k = model._require_k()
    if not table.standardized:
        raise ValidationError("scores require the standardized table the model was fitted on")
    if table.values.shape[1] != model.p:
        raise ValidationError(
            f"table has {table.values.shape[1]} indicators, model expects {model.p}"
        )
    return ScoreMatrix(
        entries=table.values @ model.eigen.eigenvectors[:, :k],
        row_labels=table.region_labels,
        col_labels=component_names(k),
    )


def write_variance_table(model: PcaModel, path: str | Path) -> None:
    rows = (
        [
            str(i + 1),
            format_float(model.eigen.eigenvalues[i]),
            format_float(model.variance_percent[i]),
            format_float(model.cumulative_percent[i]),
        ]
        for i in range(model.p)
    )
    write_rows(path, ["dimension", "eigenvalue", "variance_percent", "cumulative_percent"], rows)
