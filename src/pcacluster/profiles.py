"""Per-cluster descriptive statistics in original indicator units.

Skewness and excess kurtosis use the bias-adjusted sample estimators:

    G1 = g1 * sqrt(n(n-1)) / (n-2),          g1 = m3 / m2^(3/2)
    G2 = n(n+1) / ((n-1)(n-2)(n-3)) * sum(((x - mean)/s)^4)
         - 3(n-1)^2 / ((n-2)(n-3))

with m2, m3 the n-divisor central moments and s the n-1 sample standard
deviation. G2 can reach -6 at n=4 (the plain moment estimator bottoms
out at -2), which is what makes small-cluster excess kurtosis below -2
representable at all. Statistics whose estimator minimum sample size or
positive-variance requirement is not met are None and render as "n/a".
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .hclust import Partition
from .ingest import IndicatorTable

UNDEFINED = "n/a"


@dataclass(frozen=True)
class ProfileRow:
    cluster: int
    indicator: str
    average: float
    standard_deviation: float | None
    skewness: float | None
    kurtosis: float | None
    to_country_average_percent: float | None


def sample_sd(values: np.ndarray) -> float | None:
    if values.size < 2:
        return None
    return float(values.std(ddof=1))


def sample_skewness(values: np.ndarray) -> float | None:
    n = values.size
    if n < 3:
        return None
    centered = values - values.mean()
    with np.errstate(over="ignore", invalid="ignore"):
        m2 = (centered**2).mean()
        if m2 == 0.0:
            return None
        g1 = float((centered**3).mean() / m2**1.5)
    return g1 * math.sqrt(n * (n - 1)) / (n - 2)


def sample_excess_kurtosis(values: np.ndarray) -> float | None:
    n = values.size
    if n < 4:
        return None
    sd = float(values.std(ddof=1))
    if sd == 0.0:
        return None
    z4 = float((((values - values.mean()) / sd) ** 4).sum())
    return n * (n + 1) / ((n - 1) * (n - 2) * (n - 3)) * z4 - 3 * (n - 1) ** 2 / (
        (n - 2) * (n - 3)
    )


def profile(table: IndicatorTable, part: Partition) -> list[ProfileRow]:
    """Mean, sd, skewness, kurtosis, and %-to-grand-mean per (cluster, indicator).

    Expects the imputed table in original units; grand means are
    unweighted over all regions (each region counts once).
    """
    if table.standardized:
        raise ValidationError("profile expects original (unstandardized) units")
    if table.has_missing():
        raise ValidationError("profile expects an imputed table without missing values")
    if part.n_items != table.n_regions:
        raise ValidationError(
            f"partition covers {part.n_items} items, table has {table.n_regions} regions"
        )
    grand_means = table.values.mean(axis=0)
    rows: list[ProfileRow] = []
    for cluster_id in range(1, part.k + 1):
        idx = part.members(cluster_id)
        if not idx:
            raise ValidationError(f"empty cluster {cluster_id}")
        block = table.values[idx, :]
        for j, indicator in enumerate(table.indicator_labels):
            column = block[:, j]
            mean = float(column.mean())
            grand = float(grand_means[j])
            row = ProfileRow(
                cluster=cluster_id,
                indicator=indicator,
                average=mean,
                standard_deviation=sample_sd(column),
                skewness=sample_skewness(column),
                kurtosis=sample_excess_kurtosis(column),
                to_country_average_percent=(
                    (mean / grand - 1.0) * 100.0 if grand != 0.0 else None
                ),
            )
            # the cubed deviations, or a near-zero grand mean, can overflow
            for name in ("skewness", "to_country_average_percent"):
                value = getattr(row, name)
                if value is not None and not math.isfinite(value):
                    raise NumericalError(f"cluster {cluster_id}, indicator {indicator!r}: "
                                         f"{name} overflows float64")
            rows.append(row)
    return rows


def _stat_cell(value: float | None) -> str:
    return UNDEFINED if value is None else f"{value:.2f}"


def _percent_cell(value: float | None) -> str:
    if value is None:
        return UNDEFINED
    return f"{round(value)}%"


def format_profile_table(rows: list[ProfileRow], cluster_id: int) -> str:
    """One cluster's rows as delimited text in the report column layout."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["Indicator", "Average", "Standard deviation", "Skewness", "kurtosis",
                     "To country average, %"])
    writer.writerows(
        [
            row.indicator,
            f"{row.average:.7g}",
            UNDEFINED if row.standard_deviation is None else f"{row.standard_deviation:.7g}",
            _stat_cell(row.skewness),
            _stat_cell(row.kurtosis),
            _percent_cell(row.to_country_average_percent),
        ]
        for row in rows
        if row.cluster == cluster_id
    )
    return buffer.getvalue()
