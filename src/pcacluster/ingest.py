"""Loading, validation, imputation, and standardization of indicator tables.

The on-disk format is delimited text (UTF-8): a header row whose first
column titles the region labels and whose remaining columns name the
indicators, then one row per region. An empty cell or the literal token
"NA" marks a missing value. Decimal-comma files are supported via
ParseOptions(decimal=",") combined with a non-comma delimiter.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import NumericalError, ValidationError
from .tables import labeled_rows, write_labeled_matrix

MISSING_TOKEN = "NA"

_STANDARD_TOL = 1e-10


@dataclass(frozen=True)
class ParseOptions:
    """Delimiter and decimal-separator settings for reading tables."""

    delimiter: str = ","
    decimal: str = "."

    def __post_init__(self) -> None:
        if self.delimiter not in (",", ";"):
            raise ValidationError(f"unsupported delimiter {self.delimiter!r} (use ',' or ';')")
        if self.decimal not in (".", ","):
            raise ValidationError(f"unsupported decimal separator {self.decimal!r}")
        if self.delimiter == self.decimal:
            raise ValidationError("delimiter and decimal separator must differ")


@dataclass(frozen=True, eq=False)
class IndicatorTable:
    """A regions x indicators table of real values, missing cells as NaN.

    Instances are immutable: the value grid is write-locked on
    construction and every operation returns a new table.
    """

    region_labels: tuple[str, ...]
    indicator_labels: tuple[str, ...]
    values: np.ndarray
    standardized: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "region_labels", tuple(self.region_labels))
        object.__setattr__(self, "indicator_labels", tuple(self.indicator_labels))
        grid = np.array(self.values, dtype=float)
        if grid.ndim != 2:
            raise ValidationError("values must be a 2-D grid")
        n, p = grid.shape
        if n != len(self.region_labels):
            raise ValidationError(
                f"{n} value rows but {len(self.region_labels)} region labels"
            )
        if p != len(self.indicator_labels):
            raise ValidationError(
                f"{p} value columns but {len(self.indicator_labels)} indicator labels"
            )
        dup = _first_duplicate(self.region_labels)
        if dup is not None:
            raise ValidationError(f"duplicate region label {dup!r}")
        dup = _first_duplicate(self.indicator_labels)
        if dup is not None:
            raise ValidationError(f"duplicate indicator label {dup!r}")
        if self.standardized:
            if np.isnan(grid).any():
                raise ValidationError("standardized table must not contain missing values")
            mean = grid.mean(axis=0)
            sd = grid.std(axis=0, ddof=1)
            off = np.flatnonzero(
                (np.abs(mean) > _STANDARD_TOL) | (np.abs(sd - 1.0) > _STANDARD_TOL))
            if off.size:
                j = off[0]
                raise ValidationError(f"indicator {self.indicator_labels[j]!r} is not "
                                      f"z-scored: mean {mean[j]:.3g}, sd {sd[j]:.3g}")
        grid.flags.writeable = False
        object.__setattr__(self, "values", grid)

    @property
    def n_regions(self) -> int:
        return self.values.shape[0]

    @property
    def n_indicators(self) -> int:
        return self.values.shape[1]

    def has_missing(self) -> bool:
        return bool(np.isnan(self.values).any())


def _first_duplicate(labels: tuple[str, ...]) -> str | None:
    seen: set[str] = set()
    for label in labels:
        if label in seen:
            return label
        seen.add(label)
    return None


def _parse_cell(text: str, decimal: str) -> float:
    stripped = text.strip()
    if stripped == "" or stripped == MISSING_TOKEN:
        return math.nan
    if decimal == ",":
        stripped = stripped.replace(",", ".")
    try:
        value = float(stripped)
    except ValueError:
        raise ValidationError(f"non-numeric cell {text!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"non-numeric cell {text!r}")
    return value


def _parse_row(cells: list[str], decimal: str, out: np.ndarray) -> bool:
    """Fill out with what _parse_cell gives for each cell, without a Python
    call per cell. False if some cell is not a number or not finite: the
    caller then parses the row cell by cell, and _parse_cell names the first
    bad cell."""
    tokens = [cell.strip() for cell in cells]
    if decimal == ",":
        tokens = [token.replace(",", ".") for token in tokens]
    try:
        out[:] = [math.nan if token == "" or token == MISSING_TOKEN else float(token)
                  for token in tokens]
    except ValueError:
        return False
    # every missing cell is NaN, so the row is clean when nothing else is
    missing = tokens.count("") + tokens.count(MISSING_TOKEN)
    return out.size - np.count_nonzero(np.isfinite(out)) == missing


def _parse_values(cells: list[str], decimal: str) -> np.ndarray:
    """The cells as floats; a ValidationError names the first bad cell's column."""
    values = np.empty(len(cells))
    if not _parse_row(cells, decimal, values):
        for j, cell in enumerate(cells):
            try:
                values[j] = _parse_cell(cell, decimal)
            except ValidationError as exc:
                raise ValidationError(f"column {j + 2}: {exc}") from None
    return values


def load_table(path: str | Path, options: ParseOptions = ParseOptions()) -> IndicatorTable:
    """Read a delimited-text indicator table.

    The first header cell titles the region column and is discarded;
    remaining header cells become indicator labels. Missing cells stay
    missing (NaN), they are never zero-filled here.

    Each row is parsed as it is read, into an array of its own, and the
    arrays are stacked once at the end. The first bad row is remembered
    and reading goes on, because a read error anywhere in the file, an
    empty file, a short header and fewer than 3 region rows are reported
    before it.
    """
    path = Path(path)
    header: list[str] = []
    region_labels: list[str] = []
    value_rows: list[np.ndarray] = []
    n_rows = 0
    row_error = ""
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            for row in csv.reader(handle, delimiter=options.delimiter):
                if not row:
                    continue
                if not header:
                    header = row
                    continue
                n_rows += 1
                if row_error or len(header) < 3:
                    continue
                if len(row) != len(header):
                    row_error = f"row {n_rows + 1} has {len(row)} fields, expected {len(header)}"
                    continue
                try:
                    value_rows.append(_parse_values(row[1:], options.decimal))
                except ValidationError as exc:
                    row_error = f"row {n_rows + 1}, {exc}"
                    continue
                region_labels.append(row[0].strip())
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if not header:
        raise ValidationError(f"{path}: empty file")
    if len(header) < 3:
        raise ValidationError(f"{path}: fewer than 2 indicator columns")
    if n_rows < 3:
        raise ValidationError(f"{path}: fewer than 3 region rows")
    if row_error:
        raise ValidationError(f"{path}: {row_error}")
    grid = np.stack(value_rows)
    value_rows.clear()  # IndicatorTable copies the grid: hold two grids, not three
    indicator_labels = tuple(cell.strip() for cell in header[1:])
    return IndicatorTable(tuple(region_labels), indicator_labels, grid)


def write_table(table: IndicatorTable, path: str | Path) -> None:
    """Write a table in load_table's default format: ',' delimiter, '.' decimal.

    Floats are serialized with format_float (repr: the shortest round-trip
    form, at most 17 significant digits), so write -> load reproduces values
    bit-exactly. Missing entries become empty cells.
    """
    write_labeled_matrix(path, ["region", *table.indicator_labels],
                         labeled_rows(table.region_labels, table.values))


def impute_means(table: IndicatorTable) -> IndicatorTable:
    """Replace each missing entry by the mean of its column's present values."""
    if table.standardized:
        raise ValidationError("impute_means expects an unstandardized table")
    grid = table.values.copy()
    missing = np.isnan(grid)
    for j, label in enumerate(table.indicator_labels):
        col_missing = missing[:, j]
        if not col_missing.any():
            continue
        if col_missing.all():
            raise ValidationError(f"all-missing column: indicator {label!r}")
        with np.errstate(over="ignore", invalid="ignore"):
            mean = grid[~col_missing, j].mean()
        if not np.isfinite(mean):
            raise NumericalError(f"indicator {label!r} overflows float64: its mean is not finite")
        grid[col_missing, j] = mean
    return replace(table, values=grid)


def standardize(table: IndicatorTable) -> IndicatorTable:
    """Z-score every column: (x - mean) / sample sd, with the n-1 divisor."""
    if table.has_missing():
        raise ValidationError("standardize requires a table without missing values")
    grid = table.values
    with np.errstate(over="ignore", invalid="ignore"):
        mean = grid.mean(axis=0)
        sd = grid.std(axis=0, ddof=1)
    labels = table.indicator_labels
    overflow = np.flatnonzero(~np.isfinite(mean) | ~np.isfinite(sd))
    if overflow.size:
        raise NumericalError(f"indicator {labels[overflow[0]]!r} overflows float64: "
                             "its mean or sd is not finite")
    zero = np.flatnonzero(sd == 0.0)
    if zero.size:
        raise ValidationError(f"zero-variance indicator {labels[zero[0]]!r}")
    return replace(table, values=(grid - mean) / sd, standardized=True)
