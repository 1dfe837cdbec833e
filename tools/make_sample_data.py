"""Regenerate the bundled sample table (src/pcacluster/data/sample_regions.csv).

Synthetic data only: a planted 4-cluster mixture mapped onto plausible
per-indicator scales, with a handful of missing cells to exercise
imputation. Deterministic; run from the repository root.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

from pcacluster.synth import SyntheticSpec, generate_synthetic

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import PAPER_INDICATORS  # noqa: E402

OUT = Path(__file__).resolve().parents[1] / "src" / "pcacluster" / "data" / "sample_regions.csv"

MISSING_BLANK = [(4, 2), (17, 7), (40, 11), (63, 16)]
MISSING_NA = [(9, 3), (28, 10), (52, 0), (77, 18)]


def main() -> None:
    table, _ = generate_synthetic(
        SyntheticSpec(n=85, p=19, clusters=4, separation=5.0, within_sd=1.0, seed=774411)
    )
    z = table.values
    z = (z - z.mean(axis=0)) / z.std(axis=0, ddof=1)
    rows = []
    for i in range(85):
        row: list[str] = [f"Region {i + 1:02d}"]
        for j, (_, mean, sd, floor, decimals) in enumerate(PAPER_INDICATORS):
            value = mean + z[i, j] * sd
            if floor is not None:
                value = max(value, floor)
            if (i, j) in MISSING_BLANK:
                row.append("")
            elif (i, j) in MISSING_NA:
                row.append("NA")
            else:
                row.append(f"{value:.{decimals}f}")
        rows.append(row)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    with OUT.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["region"] + [label for label, *_ in PAPER_INDICATORS])
        writer.writerows(rows)
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
