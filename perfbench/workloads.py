"""Seeded inputs for the three benchmark workloads.

Each writer puts a pipeline config (and, in file mode, its input table)
into a directory and returns the config path. The inputs depend only on
the seed. Nothing here imports pcacluster, so a change to the program
cannot change what it is fed.

Why these three:

- paper: the paper's 85 x 19 table in original units, default config.
  Import and fixed per-run costs dominate.
- regions: synthetic mode, n = 1000, p = 19. Cubic complete linkage
  dominates (about 95% of the run while linkage is cubic).
- wide: a 400 x 120 semicolon / decimal-comma table with NA cells and
  duplicated rows. The eigensolver at p = 120, the 48 000-cell heatmap,
  profiles and decimal-comma parsing share the run with linkage.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

WORKLOADS = ("paper", "regions", "wide")
INDICATOR_COUNTS = {"paper": 19, "regions": 19, "wide": 120}

# label, mean, sd, floor (None = unbounded), decimals; the recipe of the
# bundled 85 x 19 sample table
PAPER_INDICATORS = [
    ("GRP per capita, rubles", 250000.0, 180000.0, 15000.0, 2),
    ("The volume of investments in fixed assets, million rubles", 350000.0, 400000.0, 2000.0, 2),
    ("Cost of fixed assets, million rubles", 800000.0, 700000.0, 10000.0, 2),
    ("Expenditures on technological innovations, million rubles", 15000.0, 20000.0, 50.0, 2),
    ("Industrial producer price index, %", 104.0, 3.0, None, 2),
    ("Average per capita cash income, rubles", 30000.0, 9000.0, 9000.0, 2),
    ("The share of the population with cash incomes below the subsistence level, in %", 14.0, 5.0, 1.0, 2),
    ("Gini coefficient, at times", 0.38, 0.02, 0.25, 3),
    ("Consumer Price Index, %", 104.0, 0.8, None, 2),
    ("Cost of a fixed set of consumer goods and services, rub", 15500.0, 2500.0, 9000.0, 2),
    ("Coefficients of migration growth per 10 000 population", 0.0, 40.0, None, 1),
    ("Population change", 0.0, 1.2, None, 2),
    ("Demographic load factors, per 1000 people of working age", 780.0, 60.0, None, 1),
    ("Natural population growth rates per 1000 people", -1.5, 3.0, None, 2),
    ("Life expectancy at birth, years", 72.0, 2.0, None, 2),
    ("Number of labor resources, thousand people", 900.0, 800.0, 50.0, 1),
    ("The share of persons under working age employed in the economy in the total number of employed", 25.0, 4.0, 1.0, 2),
    ("Unemployment rate", 5.5, 2.5, 0.5, 2),
    ("Real accounted wages of employees of organizations", 102.0, 2.5, None, 2),
]

# separation 6 (the synthetic default) leaves complete linkage below the
# ARI >= 0.9 gate on about 7% of seeds at n = 1000; at 10 the lowest ARI
# over 300 seeds was 0.98
REGIONS_SEPARATION = 10.0
REGIONS_N = 1000

WIDE_N, WIDE_P = 400, 120
WIDE_MISSING_SHARE = 0.02


def planted_mixture(rng: np.random.Generator, n: int, p: int, clusters: int,
                    separation: float) -> np.ndarray:
    """n x p Gaussian mixture, unit within-cluster sd, minimum center gap
    equal to separation, regions assigned to clusters in equal blocks."""
    directions = rng.standard_normal((clusters, p))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    gap = min(
        float(np.linalg.norm(directions[i] - directions[j]))
        for i in range(clusters) for j in range(i + 1, clusters)
    )
    centers = directions * (separation / gap)
    assignment = np.arange(n) * clusters // n
    return centers[assignment] + rng.standard_normal((n, p))


def _write_config(directory: Path, lines: list[str]) -> Path:
    path = directory / "pipeline.conf"
    path.write_text("\n".join(lines + ["output_dir = out"]) + "\n", encoding="utf-8")
    return path


def write_paper(directory: Path, rng: np.random.Generator) -> Path:
    n, p = 85, len(PAPER_INDICATORS)
    z = planted_mixture(rng, n, p, 4, 5.0)
    z = (z - z.mean(axis=0)) / z.std(axis=0, ddof=1)
    missing = rng.choice(n * p, size=8, replace=False)
    blank, na = set(missing[:4].tolist()), set(missing[4:].tolist())
    rows = []
    for i in range(n):
        row = [f"Region {i + 1:02d}"]
        for j, (_, mean, sd, floor, decimals) in enumerate(PAPER_INDICATORS):
            value = mean + z[i, j] * sd
            if floor is not None:
                value = max(value, floor)
            cell = i * p + j
            row.append("" if cell in blank else "NA" if cell in na else f"{value:.{decimals}f}")
        rows.append(row)
    with (directory / "paper.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["region"] + [label for label, *_ in PAPER_INDICATORS])
        writer.writerows(rows)
    return _write_config(directory, ["input = paper.csv"])


def write_regions(directory: Path, rng: np.random.Generator) -> Path:
    return _write_config(directory, [
        "synthetic = true",
        f"n = {REGIONS_N}",
        "p = 19",
        "clusters = 4",
        f"separation = {REGIONS_SEPARATION:g}",
        "within_sd = 1",
        f"seed = {int(rng.integers(2**31))}",
        "k_regions = 4",
        "cluster_space = both",
    ])


def write_wide(directory: Path, rng: np.random.Generator) -> Path:
    n, p = WIDE_N, WIDE_P
    z = planted_mixture(rng, n, p, 4, 6.0)
    means = 10.0 ** rng.uniform(0.0, 5.0, size=p)
    values = means + z * means * rng.uniform(0.05, 0.4, size=p)
    missing = rng.random((n, p)) < WIDE_MISSING_SHARE
    # a few regions repeat another region's row, NA cells included, so
    # zero-distance ties reach the linkage tie-break rule
    n_dup = int(rng.integers(3, 7))
    picked = rng.choice(n, size=2 * n_dup, replace=False)
    for source, target in zip(picked[:n_dup], picked[n_dup:]):
        values[target] = values[source]
        missing[target] = missing[source]
    with (directory / "wide.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=";", lineterminator="\n")
        writer.writerow(["region"] + [f"Indicator {j + 1:03d}" for j in range(p)])
        for i in range(n):
            writer.writerow([f"Region {i + 1:03d}"] + [
                "NA" if missing[i, j] else f"{values[i, j]:.2f}".replace(".", ",")
                for j in range(p)
            ])
    return _write_config(directory, ["input = wide.csv", "delimiter = semicolon",
                                     "decimal = comma"])


WRITERS = {"paper": write_paper, "regions": write_regions, "wide": write_wide}


def write_workload(name: str, seed: int, directory: Path) -> Path:
    """Write the named workload's inputs for this seed; return its config."""
    rng = np.random.default_rng([seed % 2**64, WORKLOADS.index(name)])
    return WRITERS[name](directory, rng)
