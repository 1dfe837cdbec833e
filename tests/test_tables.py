from __future__ import annotations

import csv
import io

import numpy as np
import pytest

from pcacluster.tables import (csv_line, format_float, format_run, labeled_rows,
                               write_labeled_matrix, write_rows)

LABELS = ["", "a,b", 'q"x', "a\nb", "c\rd", " pad ", "Région №5", "a;b"]
FLOATS = [-0.0, 5e-324, 1e-5, 0.1, 1e16, 1e22, 1.7976931348623157e308]


def oracle_bytes(path, header, rows, delimiter) -> bytes:
    """Each row through csv.writer, every float cell by format_float."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        for cells, values in rows:
            writer.writerow([*cells, *map(format_float, values)])
    return path.read_bytes()


@pytest.mark.parametrize("delimiter", [","], ids=["comma"])
class TestWriterMatchesCsvOracle:
    # each label gets every float, rotated, in both signs
    grid = np.array([np.roll(FLOATS, i) * (-1) ** i for i in range(len(LABELS))])

    def check(self, tmp_path, header, rows, delimiter):
        write_labeled_matrix(tmp_path / "new.csv", header, rows)
        expected = oracle_bytes(tmp_path / "oracle.csv", header, rows, delimiter)
        assert (tmp_path / "new.csv").read_bytes() == expected

    def test_one_label_column(self, tmp_path, delimiter):
        rows = list(labeled_rows(LABELS, self.grid))
        self.check(tmp_path, ["region", *LABELS[:len(FLOATS)]], rows, delimiter)

    def test_two_label_columns(self, tmp_path, delimiter):
        rows = [*labeled_rows(LABELS, self.grid, ""), *labeled_rows(LABELS, self.grid, "a\nb")]
        self.check(tmp_path, LABELS, rows, delimiter)

    def test_one_float_per_row(self, tmp_path, delimiter):
        rows = list(labeled_rows(LABELS, np.array(FLOATS + [2.5])[:, None]))
        self.check(tmp_path, ["", ""], rows, delimiter)


def oracle_line(cells, floats=()) -> str:
    """One row through csv.writer, every float cell by format_float."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([*cells, *map(format_float, floats)])
    return buffer.getvalue()


class TestCsvLine:
    # a non-ASCII label, alone or before a run, and a lone empty label
    # before a run are in TestWriterMatchesCsvOracle's rows and headers
    @pytest.mark.parametrize("cells", [[], [""], ["\r"], ["   "]],
                             ids=["no cells", "lone empty", "carriage return", "spaces"])
    @pytest.mark.parametrize("floats", [[], [0.5, -0.0, 1e22]], ids=["no run", "run"])
    def test_matches_csv_writer(self, cells, floats):
        run = format_run(np.array(floats)) if floats else None
        assert csv_line(cells, run) == oracle_line(cells, floats)

    def test_header_only_files(self, tmp_path):
        header = ["region", *LABELS]
        write_rows(tmp_path / "rows.csv", header, [])
        write_labeled_matrix(tmp_path / "matrix.csv", header, [])
        for name in ("rows.csv", "matrix.csv"):
            assert (tmp_path / name).read_bytes() == oracle_line(header).encode("utf-8")
