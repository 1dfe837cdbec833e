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
from .tables import labeled_rows, write_labeled_matrix


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

    def __post_init__(self) -> None:
        if np.isnan(self.percent):  # no cumulative percent ever reaches NaN
            raise ValidationError(f"cumulative threshold must be a number, got {self.percent}")


SelectionRule = Kaiser | Fixed | CumulativeThreshold


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Fitted components model, immutable: the first k components are retained."""

    eigen: EigenDecomposition
    k: int

    @property
    def p(self) -> int:
        return self.eigen.order

    @property
    def variance_percent(self) -> np.ndarray:
        """Each eigenvalue as a percent of p, the trace of the correlation matrix."""
        return self.eigen.eigenvalues / self.p * 100.0

    @property
    def cumulative_percent(self) -> np.ndarray:
        return np.cumsum(self.variance_percent)

    def with_components(self, k: int) -> PcaModel:
        if not 1 <= k <= self.p:
            raise ValidationError(f"component count {k} outside [1, {self.p}]")
        return replace(self, k=k)


def component_names(k: int) -> tuple[str, ...]:
    return tuple(f"f{j + 1}" for j in range(k))


def fit_pca(table: IndicatorTable) -> PcaModel:
    """Eigendecompose a standardized table's correlation matrix, retaining all p components."""
    if not table.standardized:
        raise ValidationError("fit_pca requires a standardized table")
    n, p = table.values.shape
    if n <= p:
        raise ValidationError(f"need more regions than indicators (n={n}, p={p})")
    return PcaModel(jacobi_eigen(correlation_matrix(table)), p)


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


def coefficients(model: PcaModel) -> np.ndarray:
    """First k unit eigenvector columns (sign-normalized), p x k."""
    return model.eigen.eigenvectors[:, :model.k].copy()


def loadings(model: PcaModel) -> np.ndarray:
    """Coefficients scaled columnwise by sqrt(eigenvalue), p x k.

    Entry (i, j) equals the sample correlation between variable i and
    score column j.
    """
    k = model.k
    scale = np.sqrt(np.maximum(model.eigen.eigenvalues[:k], 0.0))
    return model.eigen.eigenvectors[:, :k] * scale


def scores(model: PcaModel, table: IndicatorTable) -> np.ndarray:
    """Project the standardized table onto the retained k component axes, n x k."""
    if not table.standardized:
        raise ValidationError("scores require the standardized table the model was fitted on")
    if table.values.shape[1] != model.p:
        raise ValidationError(
            f"table has {table.values.shape[1]} indicators, model expects {model.p}"
        )
    return table.values @ model.eigen.eigenvectors[:, :model.k]


def write_variance_table(model: PcaModel, path: str | Path) -> None:
    columns = np.column_stack(
        [model.eigen.eigenvalues, model.variance_percent, model.cumulative_percent])
    write_labeled_matrix(path, ["dimension", "eigenvalue", "variance_percent", "cumulative_percent"],
                         labeled_rows([str(d) for d in range(1, model.p + 1)], columns))
