from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from pcacluster.errors import ValidationError
from pcacluster.hclust import cluster_variables
from pcacluster.pca import (
    CumulativeThreshold,
    Fixed,
    Kaiser,
    coefficients,
    fit_pca,
    loadings,
    scores,
    select_components,
    write_variance_table,
)
from pcacluster.ingest import IndicatorTable, impute_means, load_table, standardize

from helpers import (
    REF_CUMULATIVE_PERCENT,
    REF_EIGENVALUES,
    REF_VARIANCE_PERCENT,
    make_table,
    model_from_spectrum,
    random_standardized_table,
)

SAMPLE = Path(__file__).resolve().parents[1] / "src" / "pcacluster" / "data" / "sample_regions.csv"


def exact_r_half_table():
    # two z-scored columns whose sample correlation is exactly 0.5
    u = np.array([1.0, 0.0, -1.0])
    w = np.array([1.0, -2.0, 1.0]) / math.sqrt(3.0)
    v = 0.5 * u + math.sqrt(0.75) * w
    return standardize(make_table(np.column_stack([u, v])))


class TestVarianceAccounting:
    def test_reference_spectrum_row_identity(self):
        model = model_from_spectrum(REF_EIGENVALUES)
        for computed, printed in zip(model.variance_percent, REF_VARIANCE_PERCENT):
            assert abs(computed - printed) < 5e-8

    def test_reference_spectrum_cumulative(self):
        model = model_from_spectrum(REF_EIGENVALUES)
        for computed, printed in zip(model.cumulative_percent, REF_CUMULATIVE_PERCENT):
            assert abs(computed - printed) < 1e-5
        assert abs(model.cumulative_percent[-1] - 100.0) < 1e-5

    def test_fitted_cumulative_reaches_100(self):
        model = fit_pca(random_standardized_table(1))
        assert abs(model.cumulative_percent[-1] - 100.0) < 1e-6
        assert np.all(np.diff(model.cumulative_percent) >= 0)

    def test_variance_identity_on_fit(self):
        model = fit_pca(random_standardized_table(2, n=50, p=8))
        assert np.max(np.abs(model.variance_percent * 8 / 100 - model.eigen.eigenvalues)) < 1e-9


class TestFitPca:
    def test_two_variable_analytic(self):
        model = fit_pca(exact_r_half_table())
        assert np.allclose(model.eigen.eigenvalues, [1.5, 0.5], atol=1e-12)

    def test_independent_columns_flat_spectrum(self):
        rng = np.random.default_rng(8)
        table = standardize(make_table(rng.standard_normal((10000, 5))))
        model = fit_pca(table)
        assert np.max(np.abs(model.eigen.eigenvalues - 1.0)) < 0.1

    def test_requires_more_rows_than_columns(self):
        table = random_standardized_table(3, n=6, p=5)
        small = standardize(make_table(table.values[:5, :]))
        with pytest.raises(ValidationError, match="more regions than indicators"):
            fit_pca(small)

    def test_requires_standardized(self):
        with pytest.raises(ValidationError, match="standardized"):
            fit_pca(make_table([[1.0, 2.0], [2.0, 4.0], [3.0, 5.0]]))

    def test_fitted_arrays_are_write_locked(self):
        eigen = fit_pca(random_standardized_table(14, n=30, p=5)).eigen
        with pytest.raises(ValueError):
            eigen.eigenvalues[0] = 0.0
        with pytest.raises(ValueError):
            eigen.eigenvectors[0, 0] = 0.0


class TestSelectComponents:
    def test_kaiser_on_reference_spectrum(self):
        model = model_from_spectrum(REF_EIGENVALUES)
        assert select_components(model, Kaiser()) == 5

    def test_cumulative_75_on_reference_spectrum(self):
        model = model_from_spectrum(REF_EIGENVALUES)
        assert select_components(model, CumulativeThreshold(75.0)) == 5

    def test_kaiser_floor_on_flat_spectrum(self):
        model = model_from_spectrum(np.ones(6))
        assert select_components(model, Kaiser()) == 1

    def test_kaiser_counts_strictly_above_one(self):
        model = model_from_spectrum([1.4, 1.0 + 1e-9, 1.0, 0.6 - 1e-9])
        assert select_components(model, Kaiser()) == 2

    def test_fixed_clamps(self):
        model = model_from_spectrum(REF_EIGENVALUES)
        assert select_components(model, Fixed(4)) == 4
        assert select_components(model, Fixed(0)) == 1
        assert select_components(model, Fixed(99)) == 19

    def test_cumulative_edges(self):
        model = model_from_spectrum(REF_EIGENVALUES)
        assert select_components(model, CumulativeThreshold(0.0)) == 1
        assert select_components(model, CumulativeThreshold(100.1)) == 19

    def test_unknown_rule_rejected(self):
        model = model_from_spectrum(REF_EIGENVALUES)
        with pytest.raises(ValidationError, match="^unknown selection rule 'varimax'$"):
            select_components(model, "varimax")

    def test_with_components_bounds(self):
        model = model_from_spectrum(REF_EIGENVALUES)
        with pytest.raises(ValidationError, match="outside"):
            model.with_components(0)
        with pytest.raises(ValidationError, match="outside"):
            model.with_components(20)


class TestCoefficients:
    def test_columns_have_unit_norm(self):
        model = fit_pca(random_standardized_table(4)).with_components(5)
        coef = coefficients(model)
        norms = (coef**2).sum(axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_identity_correlation_gives_standard_basis(self):
        u = np.array([1.0, 0.0, -1.0])
        w = np.array([1.0, -2.0, 1.0]) / math.sqrt(3.0)
        model = fit_pca(make_table(np.column_stack([u, w]), standardized=True))
        coef = coefficients(model.with_components(2))
        assert np.allclose(np.abs(coef), np.eye(2), atol=1e-9)

    def test_fit_retains_all_components(self):
        table = random_standardized_table(5)
        p = table.n_indicators
        model = fit_pca(table)
        assert model.k == p
        assert coefficients(model).shape == (p, p)


class TestLoadings:
    def test_two_variable_analytic(self):
        model = fit_pca(exact_r_half_table()).with_components(1)
        load = loadings(model)
        assert np.allclose(load[:, 0], math.sqrt(0.75), atol=1e-9)

    def test_identity_correlation_equals_coefficients(self):
        u = np.array([1.0, 0.0, -1.0])
        w = np.array([1.0, -2.0, 1.0]) / math.sqrt(3.0)
        model = fit_pca(make_table(np.column_stack([u, w]), standardized=True))
        model = model.with_components(2)
        assert np.allclose(loadings(model), coefficients(model), atol=1e-9)

    def test_loadings_are_variable_score_correlations(self):
        table = random_standardized_table(7)
        model = fit_pca(table).with_components(19)
        load = loadings(model)
        score = scores(model, table)
        for j in range(19):
            for i in range(19):
                r = np.corrcoef(table.values[:, i], score[:, j])[0, 1]
                assert abs(load[i, j] - r) < 1e-8

    def test_bounded_by_one(self):
        for seed in range(3):
            model = fit_pca(random_standardized_table(seed, n=40, p=9)).with_components(9)
            assert np.abs(loadings(model)).max() <= 1.0 + 1e-9

    def test_column_square_sums_equal_eigenvalues(self):
        model = fit_pca(random_standardized_table(21, n=60, p=7)).with_components(7)
        sums = (loadings(model) ** 2).sum(axis=0)
        assert np.max(np.abs(sums - model.eigen.eigenvalues)) < 1e-6


class TestScores:
    def test_identity_correlation_scores_are_the_data(self):
        u = np.array([1.0, 0.0, -1.0])
        w = np.array([1.0, -2.0, 1.0]) / math.sqrt(3.0)
        table = make_table(np.column_stack([u, w]), standardized=True)
        model = fit_pca(table).with_components(2)
        score = scores(model, table)
        assert np.allclose(np.abs(score), np.abs(table.values), atol=1e-9)

    def test_variances_match_eigenvalues(self):
        table = random_standardized_table(9)
        model = fit_pca(table).with_components(19)
        score = scores(model, table)
        variances = score.var(axis=0, ddof=1)
        assert np.max(np.abs(variances - model.eigen.eigenvalues)) < 1e-8

    def test_columns_uncorrelated(self):
        table = random_standardized_table(10)
        model = fit_pca(table).with_components(19)
        corr = np.corrcoef(scores(model, table), rowvar=False)
        np.fill_diagonal(corr, 0.0)
        assert np.max(np.abs(corr)) < 1e-8

    def test_full_rank_reconstruction(self):
        table = random_standardized_table(11, n=40, p=6)
        model = fit_pca(table).with_components(6)
        score = scores(model, table)
        coef = coefficients(model)
        rebuilt = score @ coef.T
        assert np.max(np.abs(rebuilt - table.values)) < 1e-8

    def test_unstandardized_table_rejected(self):
        table = random_standardized_table(12, n=30, p=4)
        model = fit_pca(table).with_components(2)
        raw = make_table(table.values)
        with pytest.raises(ValidationError, match="^scores require the standardized table"):
            scores(model, raw)

    def test_dimension_mismatch(self):
        table = random_standardized_table(12, n=30, p=4)
        other = random_standardized_table(12, n=30, p=5)
        model = fit_pca(table).with_components(2)
        with pytest.raises(ValidationError, match="indicators"):
            scores(model, other)


class TestSingularCorrelation:
    """The paper's premise: an exactly collinear indicator makes R singular."""

    def test_duplicated_indicator(self):
        z = standardize(impute_means(load_table(SAMPLE)))
        table = IndicatorTable(z.region_labels, z.indicator_labels + ("copy of 2nd",),
                               np.column_stack([z.values, z.values[:, 1]]), standardized=True)
        p = table.values.shape[1]
        eigenvalues = fit_pca(table).eigen.eigenvalues
        assert abs(eigenvalues[-1]) < 1e-12
        assert abs(eigenvalues.sum() - p) < 1e-9
        left, right, height, _ = cluster_variables(table).merges[0].tolist()
        assert {left, right} == {-2, -p}
        assert height < 1e-6


class TestVarianceTableEmission:
    def test_round_trips_bit_exactly(self, tmp_path):
        model = fit_pca(random_standardized_table(13, n=30, p=5))
        path = tmp_path / "variance.csv"
        write_variance_table(model, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "dimension,eigenvalue,variance_percent,cumulative_percent"
        assert len(lines) == 6
        for i, line in enumerate(lines[1:]):
            dim, val, pct, cum = line.split(",")
            assert int(dim) == i + 1
            assert float(val) == model.eigen.eigenvalues[i]
            assert float(pct) == model.variance_percent[i]
            assert float(cum) == model.cumulative_percent[i]
