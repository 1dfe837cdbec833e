"""Per-cluster descriptive statistics in original indicator units.

Skewness and excess kurtosis use the bias-adjusted sample estimators:

    G1 = g1 * sqrt(n(n-1)) / (n-2),          g1 = m3 / m2^(3/2)
    G2 = n(n+1) / ((n-1)(n-2)(n-3)) * sum(((x - mean)/s)^4)
         - 3(n-1)^2 / ((n-2)(n-3))

with m2, m3 the n-divisor central moments and s the n-1 sample standard
deviation. G2 can reach -6 at n=4 (the plain moment estimator bottoms
out at -2), which is what makes small-cluster excess kurtosis below -2
representable at all. Statistics whose estimator minimum sample size or
positive-variance requirement is not met are NaN and render as "n/a".

A cluster's moments are whole-block reductions: its rows are copied into
one contiguous indicators x members block, and the means, sds, m2, m3 and
fourth-power sums are axis-1 reductions over it. Each sums one contiguous
row in numpy's pairwise order, as a 1-D column sum does, so the figures
match per-column code bit for bit. The cube and the fourth power are
products, (x*x)*x and (z*z)*(z*z), not array powers: numpy dispatches an
array power to SIMD code chosen for the CPU, which can differ from libm's
pow in the last bit, so profiles.csv would change from host to host. A
product is one correctly rounded multiply per step on every CPU. Only
each cell's finish is scalar, and the 3/2 power there is a numpy scalar
power, which calls libm's pow and is not dispatched.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .hclust import Partition
from .ingest import IndicatorTable

UNDEFINED = "n/a"

# the last axis of profile's grid, and the header of profiles.csv after
# the cluster and indicator columns
STATISTICS = ("average", "standard_deviation", "skewness", "kurtosis",
              "to_country_average_percent")


def profile(table: IndicatorTable, part: Partition) -> np.ndarray:
    """Mean, sd, skewness, kurtosis, and %-to-grand-mean per (cluster, indicator).

    Returns a k x p x 5 grid, the last axis in STATISTICS order, NaN
    where a statistic is undefined. Expects the imputed table in original
    units; grand means are unweighted over all regions (each region
    counts once).
    """
    if table.standardized:
        raise ValidationError("profile expects original (unstandardized) units")
    if table.has_missing():
        raise ValidationError("profile expects an imputed table without missing values")
    if part.n_items != table.n_regions:
        raise ValidationError(
            f"partition covers {part.n_items} items, table has {table.n_regions} regions"
        )
    grand_means = table.values.mean(axis=0).tolist()
    grid = np.full((part.k, table.n_indicators, len(STATISTICS)), np.nan)
    # every cluster's rows in one pass: a stable sort by cluster id keeps
    # each cluster's rows in table order
    assignment = np.array(part.assignment)
    rows = assignment.argsort(kind="stable")
    ends = np.cumsum(np.bincount(assignment, minlength=part.k + 1)).tolist()
    for cluster_id, stats in enumerate(grid, start=1):
        idx = rows[ends[cluster_id - 1]:ends[cluster_id]]
        n = len(idx)
        block = np.ascontiguousarray(table.values[idx].T)
        stats[:, 0] = means = block.mean(axis=1)
        if n >= 2:
            stats[:, 1] = sd = block.std(axis=1, ddof=1)
        if n >= 3:
            centered = block - means[:, None]
            with np.errstate(over="ignore", invalid="ignore"):
                squared = centered * centered
                m2s = squared.mean(axis=1)
                m3s = (squared * centered).mean(axis=1)
        if n >= 4:
            # a zero-sd row's kurtosis is undefined; dividing it by 1 instead
            # keeps its discarded sum free of division warnings
            z = centered / np.where(sd == 0.0, 1.0, sd)[:, None]
            z *= z
            z4s = (z * z).sum(axis=1).tolist()
        for j, (indicator, mean, grand) in enumerate(
                zip(table.indicator_labels, means.tolist(), grand_means)):
            if n >= 3 and m2s[j] != 0.0:
                with np.errstate(over="ignore", invalid="ignore"):  # scalar pow, see above
                    g1 = float(m3s[j] / m2s[j]**1.5)
                stats[j, 2] = _finite(g1 * math.sqrt(n * (n - 1)) / (n - 2),
                                      cluster_id, indicator, "skewness")
            if n >= 4 and sd[j] != 0.0:
                stats[j, 3] = n * (n + 1) / ((n - 1) * (n - 2) * (n - 3)) * z4s[j] - 3 * (
                    n - 1) ** 2 / ((n - 2) * (n - 3))
            if grand != 0.0:
                stats[j, 4] = _finite((mean / grand - 1.0) * 100.0,
                                      cluster_id, indicator, "to_country_average_percent")
    return grid


def _finite(value: float, cluster_id: int, indicator: str, name: str) -> float:
    # the cubed deviations, or a near-zero grand mean, can overflow
    if not math.isfinite(value):
        raise NumericalError(f"cluster {cluster_id}, indicator {indicator!r}: "
                             f"{name} overflows float64")
    return value


# one format spec per STATISTICS entry; "%" is a whole percent
_SPECS = (".7g", ".7g", ".2f", ".2f", "%")


def _cell(value: float, spec: str) -> str:
    if math.isnan(value):
        return UNDEFINED
    return f"{round(value)}%" if spec == "%" else format(value, spec)


def format_profile_table(block: np.ndarray, indicator_labels: Sequence[str]) -> list[list[str]]:
    """One cluster's p x 5 block of profile's grid as rows of text cells
    in the report column layout, header first."""
    header = ["Indicator", "Average", "Standard deviation", "Skewness", "kurtosis",
              "To country average, %"]
    return [header, *([label, *map(_cell, values, _SPECS)]
                      for label, values in zip(indicator_labels, block.tolist()))]
