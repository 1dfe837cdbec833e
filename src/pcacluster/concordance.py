"""Agreement between two partitions: contingency counts, Rand index, ARI.

Counts are kept as exact Python integers; only the final index values
involve floating-point division, so symmetric inputs give bitwise
symmetric results.
"""

from __future__ import annotations

from math import comb

from .errors import ValidationError
from .hclust import Partition


Counts = tuple[tuple[int, ...], ...]


def contingency(a: Partition, b: Partition) -> Counts:
    """Entry (i, j) counts items in cluster i of a and cluster j of b."""
    if a.n_items != b.n_items:
        raise ValidationError(
            f"partitions cover {a.n_items} and {b.n_items} items"
        )
    grid = [[0] * b.k for _ in range(a.k)]
    for ca, cb in zip(a.assignment, b.assignment):
        grid[ca - 1][cb - 1] += 1
    return tuple(tuple(row) for row in grid)


def _pair_sums(counts: Counts) -> tuple[int, int, int]:
    same_both = sum(comb(v, 2) for row in counts for v in row)
    same_a = sum(comb(sum(row), 2) for row in counts)
    same_b = sum(comb(sum(col), 2) for col in zip(*counts))
    return same_both, same_a, same_b


def rand_index(a: Partition, b: Partition) -> float:
    """Fraction of item pairs on which the two partitions agree."""
    counts = contingency(a, b)
    total = comb(a.n_items, 2)
    if total == 0:
        return 1.0
    same_both, same_a, same_b = _pair_sums(counts)
    return (total + 2 * same_both - same_a - same_b) / total


def adjusted_rand_index(a: Partition, b: Partition) -> float:
    """Chance-corrected pair agreement in [-1, 1].

    Returns 0.0 when the correction denominator vanishes, which happens
    only for trivial partitions (everything in one cluster on both
    sides, or singletons on both sides).
    """
    counts = contingency(a, b)
    total = comb(a.n_items, 2)
    if total == 0:
        return 0.0
    same_both, same_a, same_b = _pair_sums(counts)
    expected = same_a * same_b / total
    denominator = (same_a + same_b) / 2 - expected
    if denominator == 0.0:
        return 0.0
    return (same_both - expected) / denominator
