from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcacluster.concordance import adjusted_rand_index, contingency, rand_index
from pcacluster.errors import ValidationError
from pcacluster.hclust import Partition


def partition_of(labels) -> Partition:
    # relabel arbitrary hashables to 1..k by first appearance
    ids: dict = {}
    assignment = []
    for label in labels:
        if label not in ids:
            ids[label] = len(ids) + 1
        assignment.append(ids[label])
    return Partition(assignment=tuple(assignment), k=len(ids))


labelings = st.lists(st.integers(0, 3), min_size=2, max_size=40)


class TestContingency:
    def test_identical_partitions_are_diagonal(self):
        a = partition_of([1, 1, 2, 2])
        assert contingency(a, a) == ((2, 0), (0, 2))

    def test_crossed_partitions(self):
        a = partition_of([1, 1, 2, 2])
        b = partition_of([1, 2, 1, 2])
        assert contingency(a, b) == ((1, 1), (1, 1))

    def test_margins(self):
        a = partition_of([1, 1, 1, 2, 2, 3])
        b = partition_of([1, 2, 2, 2, 1, 1])
        counts = contingency(a, b)
        assert tuple(map(sum, counts)) == (3, 2, 1)
        assert tuple(map(sum, zip(*counts))) == (3, 3)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="items"):
            contingency(partition_of([1, 2]), partition_of([1, 2, 2]))

    @given(labelings, labelings)
    @settings(max_examples=100, deadline=None)
    def test_grid_sums_to_n(self, xs, ys):
        n = min(len(xs), len(ys))
        a = partition_of(xs[:n])
        b = partition_of(ys[:n])
        assert sum(map(sum, contingency(a, b))) == n


class TestAdjustedRandIndex:
    def test_identical_non_trivial_is_one(self):
        a = partition_of([1, 1, 2, 2, 3])
        assert adjusted_rand_index(a, a) == 1.0

    def test_one_cluster_versus_singletons_is_zero(self):
        n = 6
        lumped = partition_of([1] * n)
        singles = partition_of(range(n))
        assert adjusted_rand_index(lumped, singles) == 0.0

    def test_degenerate_identical_trivial_is_zero(self):
        lumped = partition_of([1, 1, 1])
        assert adjusted_rand_index(lumped, lumped) == 0.0

    def test_random_labelings_hover_near_zero(self):
        rng = np.random.default_rng(53)
        values = []
        for _ in range(100):
            a = partition_of(rng.integers(1, 5, size=100))
            b = partition_of(rng.integers(1, 5, size=100))
            values.append(abs(adjusted_rand_index(a, b)))
        assert float(np.mean(values)) < 0.1

    @given(labelings, labelings)
    @settings(max_examples=100, deadline=None)
    def test_symmetry_exact(self, xs, ys):
        n = min(len(xs), len(ys))
        a = partition_of(xs[:n])
        b = partition_of(ys[:n])
        assert adjusted_rand_index(a, b) == adjusted_rand_index(b, a)

    @given(labelings, labelings, st.permutations(range(4)))
    @settings(max_examples=100, deadline=None)
    def test_relabeling_invariance(self, xs, ys, perm):
        n = min(len(xs), len(ys))
        other = partition_of(ys[:n])
        original = partition_of(xs[:n])
        relabeled = partition_of([perm[x] for x in xs[:n]])
        assert adjusted_rand_index(original, other) == adjusted_rand_index(relabeled, other)

    @given(labelings, labelings)
    @settings(max_examples=100, deadline=None)
    def test_bounded_above_by_one(self, xs, ys):
        n = min(len(xs), len(ys))
        a = partition_of(xs[:n])
        b = partition_of(ys[:n])
        assert adjusted_rand_index(a, b) <= 1.0

    def test_disagreement_can_go_negative(self):
        a = partition_of([1, 1, 2, 2])
        b = partition_of([1, 2, 2, 1])
        assert adjusted_rand_index(a, b) < 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="items"):
            adjusted_rand_index(partition_of([1, 2]), partition_of([1, 2, 2]))


class TestRandIndex:
    def test_identical_is_one(self):
        a = partition_of([1, 2, 2, 3])
        assert rand_index(a, a) == 1.0

    def test_known_value(self):
        # pairs: (0,1) split/same? count agreements by hand:
        # a groups {0,1},{2,3}; b groups {0},{1,2},{3}
        a = partition_of([1, 1, 2, 2])
        b = partition_of([1, 2, 2, 3])
        # same-same pairs: (1,2)? a: 1 vs 2 different... agreements:
        # together in both: {1,2}? a says different -> no pair together
        # in both except none; apart in both: (0,2),(0,3),(1,3) -> 3
        # agreements = 0 + 3 of 6 pairs... plus (2,3): a together, b apart
        # -> disagreement; (0,1): a together, b apart -> disagreement;
        # (1,2): a apart, b together -> disagreement.
        assert rand_index(a, b) == 3 / 6

    @given(labelings, labelings)
    @settings(max_examples=100, deadline=None)
    def test_in_unit_interval(self, xs, ys):
        n = min(len(xs), len(ys))
        value = rand_index(partition_of(xs[:n]), partition_of(ys[:n]))
        assert 0.0 <= value <= 1.0
