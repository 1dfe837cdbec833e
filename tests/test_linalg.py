from __future__ import annotations

import numpy as np
import pytest

from pcacluster.errors import NumericalError, ValidationError
from pcacluster.linalg import correlation_matrix, jacobi_eigen
from pcacluster.ingest import standardize

from helpers import make_table, random_standardized_table


def random_symmetric(rng: np.random.Generator, p: int) -> np.ndarray:
    x = rng.standard_normal((p, p))
    return (x + x.T) / 2.0


class TestSymmetricMatrix:
    """jacobi_eigen's input checks: square, finite, exactly symmetric."""

    def test_rejects_asymmetry(self):
        with pytest.raises(ValidationError, match="not exactly symmetric"):
            jacobi_eigen(np.array([[1.0, 2.0], [2.0000001, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="square"):
            jacobi_eigen(np.zeros((2, 3)))

    @pytest.mark.parametrize("values", [
        [[np.inf, 1.0], [1.0, 1.0]],
        [[1.0, np.inf], [np.inf, 1.0]],
        [[1.0, np.nan], [np.nan, 1.0]],
    ])
    def test_rejects_non_finite(self, values):
        with pytest.raises(ValidationError, match="non-finite"):
            jacobi_eigen(np.array(values))


class TestCorrelationMatrix:
    def test_identical_columns_fully_correlated(self):
        base = np.array([1.0, 4.0, 2.0, 8.0, 5.0])
        table = standardize(make_table(np.column_stack([base, base + 0.0])))
        corr = correlation_matrix(table)
        assert abs(corr[0, 1] - 1.0) < 1e-12
        assert corr[0, 0] == 1.0 and corr[1, 1] == 1.0

    def test_opposite_columns(self):
        table = standardize(make_table(np.array([[-1.0, 1.0], [0.0, 0.0], [1.0, -1.0]])))
        corr = correlation_matrix(table)
        assert abs(corr[0, 1] + 1.0) < 1e-12

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(314)
        table = standardize(make_table(rng.standard_normal((10000, 2))))
        corr = correlation_matrix(table)
        assert abs(corr[0, 1]) < 0.05

    def test_requires_standardized(self):
        table = make_table([[1.0, 2.0], [2.0, 1.0], [3.0, 5.0]])
        with pytest.raises(ValidationError, match="standardized"):
            correlation_matrix(table)

    def test_exactly_symmetric_unit_diagonal(self):
        table = random_standardized_table(99, n=40, p=7)
        corr = correlation_matrix(table)
        assert np.array_equal(corr, corr.T)
        assert np.array_equal(np.diag(corr), np.ones(7))


class TestJacobiEigen:
    def test_identity_is_a_fixed_point(self):
        eig = jacobi_eigen(np.eye(19))
        assert np.array_equal(eig.eigenvalues, np.ones(19))
        assert np.array_equal(eig.eigenvectors, np.eye(19))

    def test_analytic_two_by_two(self):
        eig = jacobi_eigen(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert np.allclose(eig.eigenvalues, [1.5, 0.5], atol=1e-12)

    def test_reconstruction_suite(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            m = random_symmetric(rng, 19)
            eig = jacobi_eigen(m)
            rebuilt = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
            assert np.max(np.abs(rebuilt - m)) < 1e-9
            gram = eig.eigenvectors.T @ eig.eigenvectors
            assert np.max(np.abs(gram - np.eye(19))) < 1e-9
            assert abs(eig.eigenvalues.sum() - np.trace(m)) < 1e-9

    def test_eigenvalues_sorted_descending(self):
        rng = np.random.default_rng(5)
        eig = jacobi_eigen(random_symmetric(rng, 12))
        assert np.all(np.diff(eig.eigenvalues) <= 0)

    def test_sign_convention(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            eig = jacobi_eigen(random_symmetric(rng, 9))
            for j in range(9):
                column = eig.eigenvectors[:, j]
                assert column[np.argmax(np.abs(column))] > 0

    def test_zero_matrix(self):
        eig = jacobi_eigen(np.zeros((4, 4)))
        assert np.array_equal(eig.eigenvalues, np.zeros(4))

    def test_known_eigenvector_recovered(self):
        # rank-1 matrix v v' has eigenpair (|v|^2, v/|v|)
        v = np.array([3.0, 0.0, 4.0])
        m = np.outer(v, v)
        eig = jacobi_eigen(m)
        assert abs(eig.eigenvalues[0] - 25.0) < 1e-9
        assert np.allclose(eig.eigenvectors[:, 0], [0.6, 0.0, 0.8], atol=1e-9)

    def test_extreme_scale_spread(self):
        m = np.array([[1e-20, 1.0], [1.0, 1e20]])
        eig = jacobi_eigen(m)
        rebuilt = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        assert np.max(np.abs(rebuilt - m)) < 1e-9 * np.linalg.norm(m)

    def test_overflowing_eigenvalue_raises(self):
        # finite entries whose largest eigenvalue (2e308) overflows
        with pytest.raises(NumericalError, match="non-finite"):
            jacobi_eigen(np.array([[1e308, 1e308], [1e308, 1e308]]))

    def test_lapack_failure_raises(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalError, match="did not converge"):
            jacobi_eigen(np.eye(2))


class TestCorrelationSpectrum:
    def test_eigenvalues_sum_to_p_and_are_nonnegative(self):
        for seed in range(5):
            table = random_standardized_table(seed, n=60, p=11)
            eig = jacobi_eigen(correlation_matrix(table))
            assert abs(eig.eigenvalues.sum() - 11.0) < 1e-9
            assert eig.eigenvalues.min() > -1e-9

