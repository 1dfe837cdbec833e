from __future__ import annotations

import csv
import io
import math

import numpy as np
import pytest

from pcacluster.errors import NumericalError, ValidationError
from pcacluster.hclust import Partition
from pcacluster.config import load_pipeline_config
from pcacluster.ingest import standardize
from pcacluster.pipeline import run_pipeline
from pcacluster.profiles import STATISTICS, format_profile_table, profile

from helpers import make_table, oracle_profile


AVERAGE, SD, SKEWNESS, KURTOSIS, PERCENT = (
    STATISTICS.index(name) for name in (
        "average", "standard_deviation", "skewness", "kurtosis", "to_country_average_percent"))


def one_indicator_grid(values, assignment):
    """profile's k x 1 x 5 grid of a one-indicator table labeled V1."""
    table = make_table(np.asarray(values, dtype=float).reshape(-1, 1))
    part = Partition(assignment=tuple(assignment), k=max(assignment))
    return profile(table, part)


def one_indicator_profile(values, assignment):
    """The k x 5 statistics of a one-indicator table, one row per cluster."""
    return one_indicator_grid(values, assignment)[:, 0, :]


class TestEstimators:
    def test_bimodal_four_sample(self):
        row = one_indicator_profile([0, 0, 1, 1], [1, 1, 1, 1])[0]
        assert abs(row[SD] - math.sqrt(1 / 3)) < 1e-9
        assert abs(row[SKEWNESS] - 0.0) < 1e-9
        assert abs(row[KURTOSIS] - (-6.0)) < 1e-9

    def test_adjusted_estimator_escapes_biased_floor(self):
        # plain moment estimator: m4/m2^2 - 3, bounded below by -2
        values = np.array([0.0, 0.0, 1.0, 1.0])
        centered = values - values.mean()
        biased = (centered**4).mean() / (centered**2).mean() ** 2 - 3.0
        assert biased == -2.0
        kurtosis = one_indicator_profile(values, [1, 1, 1, 1])[0, KURTOSIS]
        assert kurtosis == pytest.approx(-6.0, abs=1e-12)

    def test_symmetric_sample_has_zero_skewness(self):
        assert abs(one_indicator_profile([1, 2, 3, 4], [1, 1, 1, 1])[0, SKEWNESS]) < 1e-12

    def test_against_closed_form_normal_like(self):
        # independent check on a hand-computable sample
        values = np.array([1.0, 2.0, 4.0])
        n = 3
        m2 = ((values - values.mean()) ** 2).mean()
        m3 = ((values - values.mean()) ** 3).mean()
        expected = (m3 / m2**1.5) * math.sqrt(n * (n - 1)) / (n - 2)
        skewness = one_indicator_profile(values, [1, 1, 1])[0, SKEWNESS]
        assert skewness == pytest.approx(expected, rel=1e-12)

    def test_minimum_sizes(self):
        assert math.isnan(one_indicator_profile([1.0, 2.0], [1, 1])[0, SKEWNESS])
        assert math.isnan(one_indicator_profile([1.0, 2.0, 3.0], [1, 1, 1])[0, KURTOSIS])

    def test_zero_variance_undefined(self):
        assert math.isnan(one_indicator_profile([2.0, 2.0, 2.0], [1, 1, 1])[0, SKEWNESS])
        assert math.isnan(one_indicator_profile([2.0] * 4, [1, 1, 1, 1])[0, KURTOSIS])


class TestProfile:
    def test_grid_shape_and_axis_order(self):
        grid = profile(make_table(np.arange(12.0).reshape(4, 3)), Partition((1, 2, 1, 2), k=2))
        assert grid.shape == (2, 3, len(STATISTICS)) and grid.dtype == np.float64
        assert STATISTICS == ("average", "standard_deviation", "skewness", "kurtosis",
                              "to_country_average_percent")
        assert grid[1, 2, AVERAGE] == 8.0  # cluster 2 holds rows 2 and 4 of column 3

    def test_percent_zero_when_cluster_mean_is_grand_mean(self):
        rows = one_indicator_profile([5.0, 5.0, 5.0, 5.0], [1, 1, 2, 2])
        assert rows[0, PERCENT] == 0.0
        assert rows[1, PERCENT] == 0.0

    def test_percent_sign(self):
        rows = one_indicator_profile([10.0, 10.0, 30.0, 30.0], [1, 1, 2, 2])
        assert rows[0, PERCENT] == pytest.approx(-50.0)
        assert rows[1, PERCENT] == pytest.approx(50.0)

    def test_singleton_cluster_has_undefined_spread(self):
        rows = one_indicator_profile([1.0, 2.0, 3.0], [1, 2, 3])
        assert np.isnan(rows[:, [SD, SKEWNESS, KURTOSIS]]).all()
        assert not np.isnan(rows[:, [AVERAGE, PERCENT]]).any()

    def test_scale_equivariance(self):
        rng = np.random.default_rng(61)
        values = rng.lognormal(1, 0.6, size=20)
        assignment = [1] * 8 + [2] * 12
        base = one_indicator_profile(values, assignment)
        scaled = one_indicator_profile(values * 7.5, assignment)
        for b, s in zip(base, scaled):
            assert s[AVERAGE] == pytest.approx(7.5 * b[AVERAGE], rel=1e-9)
            assert s[SD] == pytest.approx(7.5 * b[SD], rel=1e-9)
            assert s[SKEWNESS] == pytest.approx(b[SKEWNESS], abs=1e-9)
            assert s[KURTOSIS] == pytest.approx(b[KURTOSIS], abs=1e-9)
            assert s[PERCENT] == pytest.approx(b[PERCENT], abs=1e-9)

    def test_translation_invariance_of_shape(self):
        rng = np.random.default_rng(67)
        values = rng.standard_normal(15)
        assignment = [1] * 7 + [2] * 8
        base = one_indicator_profile(values, assignment)
        shifted = one_indicator_profile(values + 100.0, assignment)
        for b, s in zip(base, shifted):
            assert s[AVERAGE] == pytest.approx(b[AVERAGE] + 100.0, rel=1e-9)
            assert s[SD] == pytest.approx(b[SD], rel=1e-6)
            assert s[SKEWNESS] == pytest.approx(b[SKEWNESS], abs=1e-6)
            assert s[KURTOSIS] == pytest.approx(b[KURTOSIS], abs=1e-6)

    def test_weighted_cluster_means_recover_grand_mean(self):
        rng = np.random.default_rng(71)
        grid = rng.standard_normal((40, 6)) * 50 + 10
        table = make_table(grid)
        assignment = rng.integers(1, 5, size=40)
        for c in range(1, 5):  # force every cluster non-empty
            assignment[c] = c
        part = Partition(assignment=tuple(int(c) for c in assignment), k=4)
        averages = profile(table, part)[:, :, AVERAGE]
        sizes = [len(part.members(c)) for c in range(1, 5)]
        for j in range(6):
            total = sum(averages[c, j] * sizes[c] for c in range(4))
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
    """The grid's shape and every cell as float.hex (so -0.0 differs from
    0.0, and NaN matches only NaN), or the NumericalError message."""
    try:
        grid = compute(table, part)
    except NumericalError as exc:
        return str(exc)
    return grid.shape, [value.hex() for value in grid.ravel().tolist()]


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

    def test_matches_oracle_on_thousands_of_clusters(self):
        # 2000 clusters over 3000 shuffled rows, most of 1 or 2 members: each
        # cluster's rows must come in table order, as part.members lists them
        rng = np.random.default_rng(113)
        table = make_table(rng.lognormal(3.0, 2.0, size=(3000, 3)))
        assignment = np.concatenate([np.arange(1, 2001), rng.integers(1, 2001, size=1000)])
        rng.shuffle(assignment)
        part = Partition(tuple(assignment.tolist()), k=2000)
        assert profile_outcome(profile, table, part) == profile_outcome(oracle_profile, table, part)


# two indicators whose labels csv must quote: a comma, and a comma with a
# quote, read from the input header cell "a,""b"
QUOTED_LABELS = ("GRP per capita, rubles", 'a,"b')


@pytest.fixture(scope="module")
def written_cluster_table(tmp_path_factory) -> bytes:
    """The bytes of profiles/cluster_1.csv from a pipeline run whose one
    cluster holds every region, the indicators labeled QUOTED_LABELS."""
    root = tmp_path_factory.mktemp("quoted")
    grid = [[1.0, 4.0], [2.0, 3.0], [3.0, 5.0], [4.0, 1.0], [5.0, 2.0], [6.0, 6.0]]
    with (root / "regions.csv").open("w", newline="", encoding="utf-8") as handle:
        out = csv.writer(handle, lineterminator="\n")
        out.writerow(["region", *QUOTED_LABELS])
        out.writerows([f"R{i + 1}", *map(repr, row)] for i, row in enumerate(grid))
    (root / "pipe.conf").write_text(
        "input = regions.csv\nk_regions = 1\nk_vars = 1\noutput_dir = out\n", encoding="utf-8")
    run_pipeline(load_pipeline_config(root / "pipe.conf"))
    return (root / "out" / "profiles" / "cluster_1.csv").read_bytes()


class TestFormatProfileTable:
    HEADER = ["Indicator", "Average", "Standard deviation", "Skewness", "kurtosis",
              "To country average, %"]

    def test_header_and_shape(self):
        grid = profile(make_table([[10.0, 1.0], [12.0, 2.0], [30.0, 3.0], [32.0, 4.0]]),
                       Partition((1, 1, 2, 2), k=2))
        table = format_profile_table(grid[0], ["first", "second"])
        assert table[0] == self.HEADER
        assert [row[0] for row in table[1:]] == ["first", "second"]
        assert [len(row) for row in table] == [6, 6, 6]

    def test_large_average_rendering(self):
        grid = one_indicator_grid([562686.8] * 4 + [100.0] * 4, [1] * 4 + [2] * 4)
        assert format_profile_table(grid[0], ["V1"])[1][1] == "562686.8"

    def test_undefined_moments_render_na(self):
        grid = one_indicator_grid([7.0, 7.0, 7.0, 7.0, 1.0], [1, 1, 1, 1, 2])
        assert format_profile_table(grid[0], ["V1"])[1] == ["V1", "7", "0", "n/a", "n/a", "21%"]

    def test_percent_rendering_with_sign(self):
        grid = one_indicator_grid(
            [1.0, 1.0, 52.0, 52.0], [1, 1, 2, 2]
        )  # grand mean 26.5; cluster means 1 and 52
        low = format_profile_table(grid[0], ["V1"])[1][-1]
        high = format_profile_table(grid[1], ["V1"])[1][-1]
        assert low == "-96%"
        assert high == "96%"

    def test_quoted_indicator_label(self, written_cluster_table):
        lines = written_cluster_table.split(b"\n")
        assert lines[0] == b'Indicator,Average,Standard deviation,Skewness,kurtosis,"To country average, %"'
        assert lines[1].startswith(b'"GRP per capita, rubles",3.5,')

    def test_label_with_comma_and_quote_round_trips(self, written_cluster_table):
        lines = written_cluster_table.split(b"\n")
        assert lines[2].startswith(b'"a,""b",3.5,')
        assert lines[3:] == [b""]  # every line ends in "\n", none in "\r\n"
        parsed = list(csv.reader(io.StringIO(written_cluster_table.decode("utf-8"))))
        assert [len(row) for row in parsed] == [6, 6, 6]
        assert [row[0] for row in parsed[1:]] == list(QUOTED_LABELS)
