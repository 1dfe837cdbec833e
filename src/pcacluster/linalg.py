"""Dense symmetric linear algebra: correlation matrices and their eigendecomposition.

The eigensolver calls LAPACK's symmetric driver through numpy.linalg.eigh,
then fixes the order (descending) and the sign of each eigenvector so
that results do not depend on the LAPACK build's conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .ingest import IndicatorTable


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """A p x p finite matrix, exactly equal to its transpose."""

    values: np.ndarray

    def __post_init__(self) -> None:
        grid = np.array(self.values, dtype=float)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
            raise ValidationError("symmetric matrix must be square")
        if not np.isfinite(grid).all():
            raise ValidationError("matrix has non-finite entries")
        if not np.array_equal(grid, grid.T):
            raise ValidationError("matrix is not exactly symmetric")
        grid.flags.writeable = False
        object.__setattr__(self, "values", grid)

    @property
    def order(self) -> int:
        return self.values.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.values))


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues sorted descending with matching unit eigenvector columns.

    Sign convention: in each eigenvector column the entry of largest
    absolute value is positive, ties resolved to the lowest row index.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.eigenvalues, dtype=float)
        vecs = np.array(self.eigenvectors, dtype=float)
        if vals.ndim != 1 or vecs.ndim != 2 or vecs.shape != (vals.size, vals.size):
            raise ValidationError("eigenvalues/eigenvectors shape mismatch")
        if np.any(np.diff(vals) > 0):
            raise ValidationError("eigenvalues must be sorted non-increasing")
        vals.flags.writeable = False
        vecs.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def order(self) -> int:
        return self.eigenvalues.size


def correlation_matrix(table: IndicatorTable) -> SymmetricMatrix:
    """Pearson correlation matrix of a standardized table.

    Computed as (1/(n-1)) X'X on the upper triangle and mirrored, with
    the diagonal forced to exactly 1.
    """
    if not table.standardized:
        raise ValidationError("correlation_matrix requires a standardized table")
    x = table.values
    n = x.shape[0]
    product = (x.T @ x) / (n - 1)
    upper = np.triu(product, 1)
    corr = upper + upper.T
    np.fill_diagonal(corr, 1.0)
    return SymmetricMatrix(corr)


def jacobi_eigen(m: SymmetricMatrix) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by LAPACK (numpy.linalg.eigh).

    Eigenpairs are sorted descending, stable under ties, with the sign
    convention of EigenDecomposition. A LAPACK failure or a non-finite
    result raises NumericalError.
    """
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(m.values)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc
    if not (np.isfinite(eigenvalues).all() and np.isfinite(eigenvectors).all()):
        raise NumericalError("symmetric eigensolver produced non-finite values")
    order = np.argsort(-eigenvalues, kind="stable")
    vals = eigenvalues[order]
    vecs = eigenvectors[:, order]
    anchor = np.argmax(np.abs(vecs), axis=0)
    flip = vecs[anchor, np.arange(vecs.shape[1])] < 0.0
    vecs[:, flip] *= -1.0
    return EigenDecomposition(vals, vecs)
