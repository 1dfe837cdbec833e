"""Shared delimited-text emission helpers.

Every numeric cell in emitted tables goes through format_float, which
uses repr: the shortest decimal form that round-trips to the same
float64 (never more than 17 significant digits). Files produced from
the same values are therefore byte-identical across runs.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Iterator, Sequence


def format_float(x: float) -> str:
    return repr(float(x))


def write_rows(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(list(row))


def labeled_rows(labels: Sequence[str], grid) -> Iterator[list[str]]:
    """One row per label: the label, then its grid row through format_float."""
    return ([label, *map(format_float, row)] for label, row in zip(labels, grid))


def write_labeled_matrix(
    path: str | Path,
    entries,
    row_header: str,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
) -> None:
    """Matrix as delimited text: one label column plus one column per component."""
    write_rows(path, [row_header, *col_labels], labeled_rows(row_labels, entries))
