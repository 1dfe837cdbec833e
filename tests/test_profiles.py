from __future__ import annotations

import csv
import io
import math

import numpy as np
import pytest

from pcacluster.errors import NumericalError, ValidationError
from pcacluster.hclust import Partition
from pcacluster.ingest import standardize
from pcacluster.profiles import format_profile_table, profile

from helpers import make_table, oracle_profile


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
        kurtosis = one_indicator_profile(values, [1, 1, 1, 1])[0].kurtosis
        assert kurtosis == pytest.approx(-6.0, abs=1e-12)

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
        skewness = one_indicator_profile(values, [1, 1, 1])[0].skewness
        assert skewness == pytest.approx(expected, rel=1e-12)

    def test_minimum_sizes(self):
        assert one_indicator_profile([1.0, 2.0], [1, 1])[0].skewness is None
        assert one_indicator_profile([1.0, 2.0, 3.0], [1, 1, 1])[0].kurtosis is None

    def test_zero_variance_undefined(self):
        assert one_indicator_profile([2.0, 2.0, 2.0], [1, 1, 1])[0].skewness is None
        assert one_indicator_profile([2.0, 2.0, 2.0, 2.0], [1, 1, 1, 1])[0].kurtosis is None


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


def oracle_cases(seed: int, count: int):
    """Seeded tables with clusters of 1 to 5 members among larger ones and
    a constant column. Column scales run from 1e-3 to 1e12, and up to 1e150
    in every fourth table, where cubed deviations can overflow."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        sizes = [1, 2, 3, 4, 5, *rng.integers(6, 40, size=int(rng.integers(0, 3))).tolist()]
        rng.shuffle(sizes)
        n, p = sum(sizes), int(rng.integers(2, 14))
        scale = 10.0 ** rng.uniform(-3.0, 12.0 if case % 4 else 150.0, size=p)
        grid = rng.standard_normal((n, p)) * scale + rng.standard_normal(p) * scale * 3.0
        grid[:, int(rng.integers(p))] = 2.75
        if case % 3 == 0:
            grid = np.round(grid)  # ties and repeated values
        assignment = np.repeat(np.arange(1, len(sizes) + 1), sizes)
        rng.shuffle(assignment)
        yield make_table(grid), Partition(tuple(assignment.tolist()), k=len(sizes))


def profile_outcome(compute, table, part):
    """Each row's fields with floats as hex (so -0.0 differs from 0.0), or
    the NumericalError message."""
    try:
        rows = compute(table, part)
    except NumericalError as exc:
        return str(exc)
    return [tuple(value.hex() if isinstance(value, float) else value
                  for value in vars(row).values()) for row in rows]


class TestBitwiseOracle:
    def test_matches_per_column_oracle(self):
        outcomes = [
            (profile_outcome(profile, table, part), profile_outcome(oracle_profile, table, part))
            for table, part in oracle_cases(seed=107, count=60)
        ]
        for actual, expected in outcomes:
            assert actual == expected
        raised = sum(isinstance(expected, str) for _, expected in outcomes)
        assert 0 < raised < len(outcomes)  # both the rows and the overflow path

    def test_matches_oracle_on_one_large_cluster(self):
        # 3000 members: numpy's pairwise sums recurse past 128 elements
        rng = np.random.default_rng(109)
        table = make_table(rng.lognormal(3.0, 2.0, size=(3000, 4)))
        part = Partition(tuple([1] * 2997 + [2, 2, 3]), k=3)
        assert profile_outcome(profile, table, part) == profile_outcome(oracle_profile, table, part)


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
