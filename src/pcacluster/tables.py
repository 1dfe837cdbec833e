"""Comma-delimited text: the one place where rows become artifact text.

Every CSV artifact is written by RowWriter. A row is text cells
(region, indicator and cluster labels, ids, and figures a caller has
already made text, such as a rounded profile report cell) and, after
them, an optional run of floats; or a line a caller has already made
text whose cells need no quoting, such as a dendrogram's merge row of
numbers. Two rules make the bytes:

- Text cells are quoted by ``csv`` (minimal quoting) with the real
  "\\n" line terminator, so a cell is quoted exactly when
  ``csv.writer(lineterminator="\\n")`` would quote it: when it holds a
  comma, a double quote or "\\n". A writer built with
  ``lineterminator=""`` would stop quoting "\\n".
- A run of floats is formatted once per row: one ``.tolist()``, then
  format_float's rule per cell (``repr`` of a Python float: the shortest
  decimal that round-trips to the same float64, never more than 17
  significant digits), then one ``join``. No repr holds a quote, a line
  break or ',', so a run is never quoted and is written as it is. NaN,
  a missing value or an undefined profile statistic, is an empty cell,
  as load_table reads it.

Files produced from the same values are therefore byte-identical across
runs.
"""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np


def format_float(x: float) -> str:
    return repr(float(x))


def format_run(values: np.ndarray) -> str:
    """A 1-D float array as one comma-delimited string, each cell by format_float's rule."""
    return ",".join(map(repr, values.tolist())).replace("nan", "")


class RowWriter:
    """Writes rows to an open text handle: text cells, then an optional run."""

    def __init__(self, handle: TextIO) -> None:
        self._handle = handle
        self._csv = csv.writer(handle, lineterminator="\n")
        self._buffer = io.StringIO()
        self._cells = csv.writer(self._buffer, lineterminator="\n")

    def rows(self, rows: Iterable[Sequence[str]]) -> None:
        """Rows of text cells only."""
        self._csv.writerows(rows)

    def row(self, cells: Sequence[str], run: str) -> None:
        """Text cells, then run, a format_run of at least one float, as it is."""
        buffer = self._buffer
        buffer.seek(0)
        buffer.truncate()
        # the empty last cell puts the delimiter before the run, and keeps
        # a lone empty label unquoted, as it is inside a longer row
        self._cells.writerow([*cells, ""])
        self._handle.write(buffer.getvalue()[:-1] + run + "\n")

    def line(self, text: str) -> None:
        """A row already made text, ending in "\\n", of cells that need no quoting."""
        self._handle.write(text)


@contextmanager
def open_rows(path: str | Path, header: Sequence[str]) -> Iterator[RowWriter]:
    """A RowWriter on a new UTF-8 file at path, its header row written."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        out = RowWriter(handle)
        out.rows([header])
        yield out


def write_rows(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Header, then rows of text cells."""
    with open_rows(path, header) as out:
        out.rows(rows)


def labeled_rows(labels: Sequence[str], grid,
                 *prefix: str) -> Iterator[tuple[tuple[str, ...], np.ndarray]]:
    """One (text cells, float row) pair per label: prefix and the label, then its row of grid."""
    return (((*prefix, label), row) for label, row in zip(labels, grid))


def write_labeled_matrix(path: str | Path, header: Sequence[str],
                         rows: Iterable[tuple[Sequence[str], np.ndarray]]) -> None:
    """Header, then one line per (text cells, float row) pair, such as labeled_rows yields."""
    with open_rows(path, header) as out:
        for cells, values in rows:
            out.row(cells, format_run(values))
