from __future__ import annotations

import csv
import io
import math

import numpy as np
import pytest

from pcacluster.errors import ValidationError
from pcacluster.hclust import Partition
from pcacluster.ingest import standardize
from pcacluster.profiles import (
    format_profile_table,
    profile,
    sample_excess_kurtosis,
    sample_skewness,
)

from helpers import make_table


def one_indicator_profile(values, assignment):
    table = make_table(np.asarray(values, dtype=float).reshape(-1, 1))
    part = Partition(assignment=tuple(assignment), k=max(assignment))
    return profile(table, part)


class TestEstimators:
    def test_bimodal_four_sample(self):
        rows = one_indicator_profile([0, 0, 1, 1], [1, 1, 1, 1])
        row = rows[0]
        assert abs(row.standard_deviation - math.sqrt(1 / 3)) < 1e-9
        assert abs(row.skewness - 0.0) < 1e-9
        assert abs(row.kurtosis - (-6.0)) < 1e-9

    def test_adjusted_estimator_escapes_biased_floor(self):
        # plain moment estimator: m4/m2^2 - 3, bounded below by -2
        values = np.array([0.0, 0.0, 1.0, 1.0])
        centered = values - values.mean()
        biased = (centered**4).mean() / (centered**2).mean() ** 2 - 3.0
        assert biased == -2.0
        assert sample_excess_kurtosis(values) == pytest.approx(-6.0, abs=1e-12)

    def test_symmetric_sample_has_zero_skewness(self):
        rows = one_indicator_profile([1, 2, 3, 4], [1, 1, 1, 1])
        assert abs(rows[0].skewness) < 1e-12

    def test_against_closed_form_normal_like(self):
        # independent check on a hand-computable sample
        values = np.array([1.0, 2.0, 4.0])
        n = 3
        m2 = ((values - values.mean()) ** 2).mean()
        m3 = ((values - values.mean()) ** 3).mean()
        expected = (m3 / m2**1.5) * math.sqrt(n * (n - 1)) / (n - 2)
        assert sample_skewness(values) == pytest.approx(expected, rel=1e-12)

    def test_minimum_sizes(self):
        assert sample_skewness(np.array([1.0, 2.0])) is None
        assert sample_excess_kurtosis(np.array([1.0, 2.0, 3.0])) is None

    def test_zero_variance_undefined(self):
        assert sample_skewness(np.array([2.0, 2.0, 2.0])) is None
        assert sample_excess_kurtosis(np.array([2.0, 2.0, 2.0, 2.0])) is None


class TestProfile:
    def test_percent_zero_when_cluster_mean_is_grand_mean(self):
        rows = one_indicator_profile([5.0, 5.0, 5.0, 5.0], [1, 1, 2, 2])
        assert rows[0].to_country_average_percent == 0.0
        assert rows[1].to_country_average_percent == 0.0

    def test_percent_sign(self):
        rows = one_indicator_profile([10.0, 10.0, 30.0, 30.0], [1, 1, 2, 2])
        assert rows[0].to_country_average_percent == pytest.approx(-50.0)
        assert rows[1].to_country_average_percent == pytest.approx(50.0)

    def test_singleton_cluster_has_undefined_spread(self):
        rows = one_indicator_profile([1.0, 2.0, 3.0], [1, 2, 3])
        for row in rows:
            assert row.standard_deviation is None
            assert row.skewness is None
            assert row.kurtosis is None

    def test_scale_equivariance(self):
        rng = np.random.default_rng(61)
        values = rng.lognormal(1, 0.6, size=20)
        assignment = [1] * 8 + [2] * 12
        base = one_indicator_profile(values, assignment)
        scaled = one_indicator_profile(values * 7.5, assignment)
        for b, s in zip(base, scaled):
            assert s.average == pytest.approx(7.5 * b.average, rel=1e-9)
            assert s.standard_deviation == pytest.approx(7.5 * b.standard_deviation, rel=1e-9)
            assert s.skewness == pytest.approx(b.skewness, abs=1e-9)
            assert s.kurtosis == pytest.approx(b.kurtosis, abs=1e-9)
            assert s.to_country_average_percent == pytest.approx(
                b.to_country_average_percent, abs=1e-9
            )

    def test_translation_invariance_of_shape(self):
        rng = np.random.default_rng(67)
        values = rng.standard_normal(15)
        assignment = [1] * 7 + [2] * 8
        base = one_indicator_profile(values, assignment)
        shifted = one_indicator_profile(values + 100.0, assignment)
        for b, s in zip(base, shifted):
            assert s.average == pytest.approx(b.average + 100.0, rel=1e-9)
            assert s.standard_deviation == pytest.approx(b.standard_deviation, rel=1e-6)
            assert s.skewness == pytest.approx(b.skewness, abs=1e-6)
            assert s.kurtosis == pytest.approx(b.kurtosis, abs=1e-6)

    def test_weighted_cluster_means_recover_grand_mean(self):
        rng = np.random.default_rng(71)
        grid = rng.standard_normal((40, 6)) * 50 + 10
        table = make_table(grid)
        assignment = rng.integers(1, 5, size=40)
        for c in range(1, 5):  # force every cluster non-empty
            assignment[c] = c
        part = Partition(assignment=tuple(int(c) for c in assignment), k=4)
        rows = profile(table, part)
        for j in range(6):
            total = sum(
                r.average * len(part.members(r.cluster))
                for r in rows
                if r.indicator == f"V{j + 1}"
            )
            assert total / 40 == pytest.approx(grid[:, j].mean(), abs=1e-9)

    def test_rejects_standardized_table(self):
        table = standardize(make_table([[1.0, 2.0], [2.0, 3.0], [4.0, 9.0]]))
        with pytest.raises(ValidationError, match="original"):
            profile(table, Partition((1, 1, 2), k=2))

    def test_rejects_missing_values(self):
        table = make_table([[1.0, math.nan], [2.0, 3.0], [4.0, 9.0]])
        with pytest.raises(ValidationError, match="imputed"):
            profile(table, Partition((1, 1, 2), k=2))

    def test_rejects_length_mismatch(self):
        table = make_table([[1.0, 2.0], [2.0, 3.0], [4.0, 9.0]])
        with pytest.raises(ValidationError, match="partition covers"):
            profile(table, Partition((1, 2), k=2))


class TestFormatProfileTable:
    HEADER = 'Indicator,Average,Standard deviation,Skewness,kurtosis,"To country average, %"'

    def test_header_and_shape(self):
        rows = one_indicator_profile([10.0, 12.0, 30.0, 32.0], [1, 1, 2, 2])
        text = format_profile_table(rows, 1)
        lines = text.splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 2

    def test_large_average_rendering(self):
        rows = one_indicator_profile([562686.8] * 4 + [100.0] * 4, [1] * 4 + [2] * 4)
        cells = format_profile_table(rows, 1).splitlines()[1].split(",")
        assert cells[1] == "562686.8"

    def test_undefined_moments_render_na(self):
        rows = one_indicator_profile([7.0, 7.0, 7.0, 7.0, 1.0], [1, 1, 1, 1, 2])
        line = format_profile_table(rows, 1).splitlines()[1]
        cells = line.split(",")
        assert cells[3] == "n/a" and cells[4] == "n/a"

    def test_percent_rendering_with_sign(self):
        rows = one_indicator_profile(
            [1.0, 1.0, 52.0, 52.0], [1, 1, 2, 2]
        )  # grand mean 26.5; cluster means 1 and 52
        low = format_profile_table(rows, 1).splitlines()[1].split(",")[-1]
        high = format_profile_table(rows, 2).splitlines()[1].split(",")[-1]
        assert low == "-96%"
        assert high == "96%"

    def test_quoted_indicator_label(self):
        table = make_table([[1.0], [2.0], [3.0]])
        table = type(table)(
            table.region_labels, ("GRP per capita, rubles",), table.values
        )
        rows = profile(table, Partition((1, 1, 1), k=1))
        line = format_profile_table(rows, 1).splitlines()[1]
        assert line.startswith('"GRP per capita, rubles"')

    def test_label_with_comma_and_quote_round_trips(self):
        label = 'a,"b'  # read from a quoted input header such as "a,""b"
        table = make_table([[1.0], [2.0], [3.0]])
        table = type(table)(table.region_labels, (label,), table.values)
        rows = profile(table, Partition((1, 1, 1), k=1))
        text = format_profile_table(rows, 1)
        parsed = list(csv.reader(io.StringIO(text)))
        assert [len(row) for row in parsed] == [6, 6]
        assert parsed[1][0] == label

    def test_other_cluster_filtered_out(self):
        rows = one_indicator_profile([1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2])
        text = format_profile_table(rows, 3)
        assert text.splitlines() == [self.HEADER]
