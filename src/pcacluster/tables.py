"""Comma-delimited text: the one place that opens an artifact for writing,
and the one rule that turns a CSV row into a line.

Every artifact is opened by open_text: UTF-8, written as it is (no
newline translation), through a 64 KiB buffer. A CSV row is text cells
(region, indicator and cluster labels, ids, and figures a caller has
already made text, such as a rounded profile report cell) and, after
them, an optional run of floats. csv_line makes the line:

- Text cells are quoted by ``csv`` (minimal quoting) with the real
  "\\n" line terminator, so a cell is quoted exactly when
  ``csv.writer(lineterminator="\\n")`` would quote it: when it holds a
  comma, a double quote or "\\n". A writer built with
  ``lineterminator=""`` would stop quoting "\\n".
- A run of floats is formatted once per row: one ``.tolist()``, then
  format_float's rule per cell (``repr`` of a Python float: the shortest
  decimal that round-trips to the same float64, never more than 17
  significant digits), then one ``join``. No repr holds a quote, a line
  break or ',', so a run is never quoted and is appended as it is. NaN,
  a missing value or an undefined profile statistic, is an empty cell,
  as load_table reads it.

write_rows hands rows of text cells only to a csv.writer of that same
dialect, which quotes a long table of labels at C speed. A caller may
also write lines it has made itself into a file open_text opened, such
as a dendrogram's merge rows of numbers, whose cells need no quoting.
Files produced from the same values are therefore byte-identical across
runs.
"""

from __future__ import annotations

import csv
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

# the write buffer of every artifact, in bytes
_BUFFER = 1 << 16

# writerow returns what its file's write returns; this file's write
# returns the line it is given, so _line(cells) is the row as one line.
# Given str cells it runs no Python code, so threads holding the GIL can share it
_line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow


def format_float(x: float) -> str:
    return repr(float(x))


def format_run(values: np.ndarray) -> str:
    """A 1-D float array as one comma-delimited string, each cell by format_float's rule."""
    return ",".join(map(repr, values.tolist())).replace("nan", "")


def csv_line(cells: Sequence[str], run: str | None = None) -> str:
    """Text cells, then run, a format_run of at least one float, as one
    line ending in "\\n"."""
    if run is None:
        return _line(cells)
    # the empty last cell puts the delimiter before the run, and keeps
    # a lone empty label unquoted, as it is inside a longer row
    return (_line([*cells, ""])[:-1] if cells else "") + run + "\n"


def open_text(path: str | Path) -> TextIO:
    """A new UTF-8 file at path, for writing."""
    return Path(path).open("w", buffering=_BUFFER, encoding="utf-8", newline="")


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Lines, each ending in "\\n", written as they come."""
    with open_text(path) as handle:
        handle.writelines(lines)


def write_rows(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Header, then rows of text cells."""
    with open_text(path) as handle:
        handle.write(csv_line(header))
        csv.writer(handle, lineterminator="\n").writerows(rows)


def labeled_rows(labels: Sequence[str], grid,
                 *prefix: str) -> Iterator[tuple[tuple[str, ...], np.ndarray]]:
    """One (text cells, float row) pair per label: prefix and the label, then its row of grid."""
    return (((*prefix, label), row) for label, row in zip(labels, grid))


def write_labeled_matrix(path: str | Path, header: Sequence[str],
                         rows: Iterable[tuple[Sequence[str], np.ndarray]]) -> None:
    """Header, then one line per (text cells, float row) pair, such as labeled_rows yields."""
    with open_text(path) as handle:
        handle.write(csv_line(header))
        handle.writelines(csv_line(cells, format_run(values)) for cells, values in rows)
