"""Dense symmetric linear algebra: correlation matrices and their eigendecomposition.

Matrices go in and come out as plain arrays. The eigensolver checks its
input at its own boundary (square, finite, exactly symmetric), then calls
LAPACK's symmetric driver through numpy.linalg.eigh and fixes the order
(descending) and the sign of each eigenvector so that results do not
depend on the LAPACK build's conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .ingest import IndicatorTable


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues sorted descending with matching unit eigenvector columns.

    Both arrays are write-locked. Sign convention: in each eigenvector
    column the entry of largest absolute value is positive, ties resolved
    to the lowest row index.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def order(self) -> int:
        return self.eigenvalues.size


def correlation_matrix(table: IndicatorTable) -> np.ndarray:
    """Pearson correlation matrix (p x p) of a standardized table.

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
    return corr


def jacobi_eigen(matrix: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by LAPACK (numpy.linalg.eigh).

    The matrix must be square, finite and exactly equal to its transpose,
    else ValidationError. Eigenpairs are sorted descending, stable under
    ties, with the sign convention of EigenDecomposition. A LAPACK failure
    or a non-finite result raises NumericalError.
    """
    grid = np.asarray(matrix, dtype=float)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise ValidationError("symmetric matrix must be square")
    if not np.isfinite(grid).all():
        raise ValidationError("matrix has non-finite entries")
    if not np.array_equal(grid, grid.T):
        raise ValidationError("matrix is not exactly symmetric")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(grid)
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
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return EigenDecomposition(vals, vecs)
