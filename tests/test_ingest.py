from __future__ import annotations

import csv
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcacluster.errors import ValidationError
from pcacluster.ingest import (
    IndicatorTable,
    ParseOptions,
    _parse_cell,
    impute_means,
    load_table,
    standardize,
    write_table,
)

from helpers import make_table

SAMPLE = Path(__file__).resolve().parents[1] / "src" / "pcacluster" / "data" / "sample_regions.csv"


def write(tmp_path: Path, text: str, name: str = "t.csv") -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadTable:
    def test_minimal_three_by_two(self, tmp_path):
        path = write(tmp_path, "region,a,b\nr1,1,2\nr2,3,4\nr3,5,6\n")
        table = load_table(path)
        assert table.n_regions == 3
        assert table.n_indicators == 2
        assert not table.has_missing()
        assert table.region_labels == ("r1", "r2", "r3")
        assert np.array_equal(table.values, [[1, 2], [3, 4], [5, 6]])

    def test_bundled_sample_has_full_schema(self):
        table = load_table(SAMPLE)
        assert table.n_regions == 85
        assert table.n_indicators == 19
        assert table.indicator_labels[0] == "GRP per capita, rubles"
        assert int(np.isnan(table.values).sum()) == 8

    def test_missing_markers(self, tmp_path):
        path = write(tmp_path, "region,a,b\nr1,,2\nr2,NA,4\nr3,5,6\n")
        table = load_table(path)
        assert math.isnan(table.values[0, 0])
        assert math.isnan(table.values[1, 0])
        assert table.values[2, 0] == 5

    def test_duplicate_region_label(self, tmp_path):
        path = write(tmp_path, "region,a,b\nr1,1,2\nr1,3,4\nr3,5,6\n")
        with pytest.raises(ValidationError, match="duplicate region label"):
            load_table(path)

    def test_duplicate_indicator_label(self, tmp_path):
        path = write(tmp_path, "region,a,a\nr1,1,2\nr2,3,4\nr3,5,6\n")
        with pytest.raises(ValidationError, match="duplicate indicator label"):
            load_table(path)

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path, "region,a,b\nr1,1,2\nr2,oops,4\nr3,5,6\n")
        with pytest.raises(ValidationError, match="non-numeric cell"):
            load_table(path)

    def test_too_few_indicators(self, tmp_path):
        path = write(tmp_path, "region,a\nr1,1\nr2,2\nr3,3\n")
        with pytest.raises(ValidationError, match="fewer than 2 indicator"):
            load_table(path)

    def test_too_few_rows(self, tmp_path):
        path = write(tmp_path, "region,a,b\nr1,1,2\nr2,3,4\n")
        with pytest.raises(ValidationError, match="fewer than 3 region rows"):
            load_table(path)

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "region,a,b\nr1,1,2\nr2,3\nr3,5,6\n")
        with pytest.raises(ValidationError, match="row 3"):
            load_table(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_table(tmp_path / "absent.csv")

    def test_semicolon_delimiter_with_decimal_comma(self, tmp_path):
        path = write(tmp_path, "region;a;b\nr1;1,5;2\nr2;3;4\nr3;5;6,25\n")
        table = load_table(path, ParseOptions(delimiter=";", decimal=","))
        assert table.values[0, 0] == 1.5
        assert table.values[2, 1] == 6.25

    def test_delimiter_equal_to_decimal_rejected(self):
        with pytest.raises(ValidationError, match="must differ"):
            ParseOptions(delimiter=",", decimal=",")

    def test_nan_token_is_not_a_number(self, tmp_path):
        # only the empty cell and "NA" mark missing; "nan" text is invalid
        path = write(tmp_path, "region,a,b\nr1,nan,2\nr2,3,4\nr3,5,6\n")
        with pytest.raises(ValidationError, match="non-numeric cell"):
            load_table(path)

    def test_infinite_cell_rejected(self, tmp_path):
        path = write(tmp_path, "region,a,b\nr1,inf,2\nr2,3,4\nr3,5,6\n")
        with pytest.raises(ValidationError, match="non-numeric cell"):
            load_table(path)

    def test_read_error_wins_over_an_earlier_bad_cell(self, tmp_path):
        # the invalid byte sits far past the first chunk the reader decodes
        lines = ["region,a,b", "r1,x,2"] + [f"r{i},{i},1" for i in range(2, 3000)]
        path = tmp_path / "t.csv"
        path.write_bytes("\n".join(lines).encode() + b"\nlast,\xff,1\n")
        with pytest.raises(ValidationError, match="cannot read"):
            load_table(path)

    def test_too_few_rows_wins_over_a_short_row(self, tmp_path):
        path = write(tmp_path, "region,a,b\nr1,1,2\nr2,3\n")
        with pytest.raises(ValidationError, match="fewer than 3 region rows"):
            load_table(path)

    def test_peak_memory_near_the_grid(self, tmp_path):
        # 400 x 120 in the semicolon / decimal-comma dialect, with NA cells
        rng = np.random.default_rng(131)
        rows = [["region", *(f"indicator {j}" for j in range(120))]] + [
            [f"region {i}", *("NA" if rng.random() < 0.02 else f"{v:.4f}".replace(".", ",")
                              for v in rng.standard_normal(120) * 1000)]
            for i in range(400)
        ]
        path = write_rows(tmp_path / "wide.csv", rows, ";")
        tracemalloc.start()
        try:
            table = load_table(path, ParseOptions(";", ","))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.values.shape == (400, 120)
        assert peak < 3 * table.values.nbytes


# every cell kind the grammar knows: missing with and without padding, a
# padded decimal comma, underscores, full-width digits, a signed zero, and
# four cells that are always rejected
TOKENS = ["", "NA", " NA ", " 2,5 ", "1_000", "\uff11\uff12", "-0", "nan", "inf", "1e400", "abc"]


def parses(token: str, decimal: str) -> bool:
    try:
        _parse_cell(token, decimal)
    except ValidationError:
        return False
    return True


def reference_grid(path: Path, options: ParseOptions):
    """The grid of one _parse_cell call per cell, or load_table's message."""
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle, delimiter=options.delimiter))
    grid = np.empty((len(rows) - 1, len(rows[0]) - 1))
    for i, row in enumerate(rows[1:]):
        if len(row) != len(rows[0]):
            return f"{path}: row {i + 2} has {len(row)} fields, expected {len(rows[0])}"
        for j, cell in enumerate(row[1:]):
            try:
                grid[i, j] = _parse_cell(cell, options.decimal)
            except ValidationError as exc:
                return f"{path}: row {i + 2}, column {j + 2}: {exc}"
    return grid


def write_rows(path: Path, rows, delimiter: str) -> Path:
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, delimiter=delimiter, lineterminator="\n").writerows(rows)
    return path


def load_outcome(path: Path, options: ParseOptions):
    try:
        return load_table(path, options).values
    except ValidationError as exc:
        return str(exc)


class TestRowParser:
    @pytest.mark.parametrize("options", [ParseOptions(), ParseOptions(";", ",")],
                             ids=["comma", "semicolon-decimal-comma"])
    def test_same_grid_bits_or_message_as_per_cell_parse(self, tmp_path, options):
        good = [token for token in TOKENS if parses(token, options.decimal)]
        bad = [token for token in TOKENS if token not in good]
        rng = np.random.default_rng(113)
        outcomes = []
        for case in range(150):
            n, p = int(rng.integers(3, 7)), int(rng.integers(2, 5))
            # about one bad cell in forty, so many tables load and many fail
            rows = [["region", *(f"v{j}" for j in range(p))]] + [
                [f"r{i}", *(bad[int(rng.integers(len(bad)))] if rng.random() < 0.025
                            else good[int(rng.integers(len(good)))] for _ in range(p))]
                for i in range(n)
            ]
            path = write_rows(tmp_path / f"t{case}.csv", rows, options.delimiter)
            actual, expected = load_outcome(path, options), reference_grid(path, options)
            if isinstance(expected, str):
                assert actual == expected
            else:
                assert np.array_equal(actual.view(np.int64), expected.view(np.int64))
            outcomes.append(isinstance(expected, str))
        assert 0 < sum(outcomes) < len(outcomes)

    def test_first_bad_row_wins_over_a_later_one(self, tmp_path):
        rows = [["region", "a", "b"], ["r1", "inf", "1"], ["r2", "1", "2"], ["r3", "3", "4"],
                ["r4", "abc", "5"]]
        path = write_rows(tmp_path / "t.csv", rows, ",")
        with pytest.raises(ValidationError, match=r"row 2, column 2: non-numeric cell 'inf'"):
            load_table(path)

    def test_bad_cell_wins_over_a_later_ragged_row(self, tmp_path):
        rows = [["region", "a", "b"], ["r1", "1", "2"], ["r2", "NA", "x"], ["r3", "3", "4"],
                ["r4", "5", "6"], ["r5", "7"]]
        path = write_rows(tmp_path / "t.csv", rows, ",")
        with pytest.raises(ValidationError, match=r"row 3, column 3: non-numeric cell 'x'"):
            load_table(path)

    @pytest.mark.parametrize("cells, column", [(["nan", "abc"], 2), (["abc", "1e400"], 2),
                                               (["NA", "1e400"], 3)])
    def test_first_bad_cell_in_a_row_wins(self, tmp_path, cells, column):
        rows = [["region", "a", "b"], ["r1", *cells], ["r2", "1", "2"], ["r3", "3", "4"]]
        path = write_rows(tmp_path / "t.csv", rows, ",")
        with pytest.raises(ValidationError, match=f"row 2, column {column}: "):
            load_table(path)


class TestIndicatorTable:
    def test_values_are_write_locked(self):
        table = make_table([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        with pytest.raises(ValueError):
            table.values[0, 0] = 9.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="region labels"):
            IndicatorTable(("a",), ("x", "y"), np.zeros((2, 2)))

    def test_standardized_flag_requires_zscores(self):
        with pytest.raises(ValidationError, match="not z-scored"):
            make_table([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], standardized=True)


class TestImputeMeans:
    def test_column_mean_fills_gap(self):
        table = make_table([[2.0, 1.0], [math.nan, 1.0], [4.0, 1.0]])
        out = impute_means(table)
        assert out.values[1, 0] == 3.0
        assert np.array_equal(out.values[:, 1], [1, 1, 1])

    def test_no_missing_is_identity(self):
        table = make_table([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = impute_means(table)
        assert np.array_equal(out.values, table.values)

    def test_all_missing_column_rejected(self):
        table = make_table([[1.0, math.nan], [2.0, math.nan], [3.0, math.nan]])
        with pytest.raises(ValidationError, match="all-missing column"):
            impute_means(table)

    def test_preserves_column_means(self):
        rng = np.random.default_rng(42)
        grid = rng.standard_normal((60, 7))
        mask = rng.random((60, 7)) < 0.2
        mask[0, :] = False  # keep every column partially present
        grid_missing = grid.copy()
        grid_missing[mask] = math.nan
        table = make_table(grid_missing)
        before = np.nanmean(table.values, axis=0)
        after = impute_means(table).values.mean(axis=0)
        assert np.max(np.abs(before - after)) < 1e-12

    def test_rejects_standardized_input(self):
        table = standardize(make_table([[1.0, 4.0], [2.0, 5.0], [3.0, 7.0]]))
        with pytest.raises(ValidationError, match="unstandardized"):
            impute_means(table)


class TestStandardize:
    def test_simple_column(self):
        out = standardize(make_table([[1.0], [2.0], [3.0]]))
        assert np.allclose(out.values[:, 0], [-1.0, 0.0, 1.0], atol=1e-15)
        assert out.standardized

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        table = make_table(rng.standard_normal((30, 5)) * 40 + 3)
        once = standardize(table)
        twice = standardize(IndicatorTable(
            once.region_labels, once.indicator_labels, once.values
        ))
        assert np.max(np.abs(twice.values - once.values)) < 1e-10

    def test_constant_column_rejected(self):
        table = make_table([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]])
        with pytest.raises(ValidationError, match="zero-variance indicator 'V1'"):
            standardize(table)

    def test_missing_values_rejected(self):
        table = make_table([[1.0, math.nan], [2.0, 5.0], [3.0, 7.0]])
        with pytest.raises(ValidationError, match="missing"):
            standardize(table)

    @given(
        st.lists(
            st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
            min_size=4,
            max_size=12,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_columns_end_up_zscored(self, rows):
        grid = np.asarray(rows)
        if np.any(grid.std(axis=0, ddof=1) < 1e-6):
            return  # near-constant columns are rejected inputs
        out = standardize(make_table(grid))
        assert np.max(np.abs(out.values.mean(axis=0))) < 1e-10
        assert np.max(np.abs(out.values.std(axis=0, ddof=1) - 1.0)) < 1e-10


class TestRoundTrip:
    def test_write_then_load_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        grid = rng.standard_normal((12, 4)) * rng.lognormal(0, 4, size=(12, 4))
        grid[2, 1] = math.nan
        grid[7, 3] = math.nan
        table = make_table(grid)
        path = tmp_path / "round.csv"
        write_table(table, path)
        back = load_table(path)
        assert back.region_labels == table.region_labels
        assert back.indicator_labels == table.indicator_labels
        assert np.array_equal(back.values, table.values, equal_nan=True)

    def test_quoted_labels_survive(self, tmp_path):
        table = IndicatorTable(
            ("Region 1", "Region 2", "Region 3"),
            ("GRP per capita, rubles", "Gini coefficient, at times"),
            [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
        )
        path = tmp_path / "quoted.csv"
        write_table(table, path)
        back = load_table(path)
        assert back.indicator_labels == table.indicator_labels
