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

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .hclust import Partition
from .ingest import IndicatorTable
from .tables import RowWriter

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
    grand_means = table.values.mean(axis=0).tolist()
    undefined = [None] * table.n_indicators
    rows: list[ProfileRow] = []
    for cluster_id in range(1, part.k + 1):
        idx = part.members(cluster_id)
        if not idx:
            raise ValidationError(f"empty cluster {cluster_id}")
        n = len(idx)
        block = np.ascontiguousarray(table.values[idx].T)
        means = block.mean(axis=1)
        sds = m2s = m3s = z4s = undefined
        if n >= 2:
            sd = block.std(axis=1, ddof=1)
            sds = sd.tolist()
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
        for indicator, mean, grand, sd_j, m2, m3, z4 in zip(
                table.indicator_labels, means.tolist(), grand_means, sds, m2s, m3s, z4s):
            skewness = kurtosis = None
            if m2 is not None and m2 != 0.0:
                with np.errstate(over="ignore", invalid="ignore"):  # scalar pow, see above
                    g1 = float(m3 / m2**1.5)
                skewness = g1 * math.sqrt(n * (n - 1)) / (n - 2)
            if z4 is not None and sd_j != 0.0:
                kurtosis = n * (n + 1) / ((n - 1) * (n - 2) * (n - 3)) * z4 - 3 * (n - 1) ** 2 / (
                    (n - 2) * (n - 3))
            percent = (mean / grand - 1.0) * 100.0 if grand != 0.0 else None
            # the cubed deviations, or a near-zero grand mean, can overflow
            for name, value in (("skewness", skewness), ("to_country_average_percent", percent)):
                if value is not None and not math.isfinite(value):
                    raise NumericalError(f"cluster {cluster_id}, indicator {indicator!r}: "
                                         f"{name} overflows float64")
            rows.append(ProfileRow(cluster_id, indicator, mean, sd_j, skewness, kurtosis, percent))
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
    out = RowWriter(buffer)
    out.rows([["Indicator", "Average", "Standard deviation", "Skewness", "kurtosis",
               "To country average, %"]])
    out.rows(
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
