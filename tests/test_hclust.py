from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from pcacluster.concordance import adjusted_rand_index
from pcacluster.errors import ValidationError
from pcacluster.hclust import (
    MAX_POINTS,
    Dendrogram,
    DistanceMatrix,
    Merge,
    Partition,
    cluster_variables,
    complete_linkage,
    cut,
    euclidean_distances,
)
from pcacluster.ingest import standardize

from helpers import (
    dendrogram_as_member_merges,
    make_table,
    oracle_complete_linkage,
    random_standardized_table,
    same_merge_sequence,
)


def line_points(values):
    return np.asarray(values, dtype=float).reshape(-1, 1)


def random_distance_matrix(rng: np.random.Generator) -> DistanceMatrix:
    n = int(rng.integers(2, 9))
    d = int(rng.integers(1, 4))
    if rng.random() < 0.5:
        points = rng.integers(0, 4, size=(n, d)).astype(float)  # grid: ties abound
    else:
        points = rng.random((n, d))
    return euclidean_distances(points)


def tie_heavy_distance_matrix(rng: np.random.Generator) -> DistanceMatrix:
    """Integer grid points or copies of a few rows: most distances tie."""
    # one in ten up to 59 points; the oracle's cost grows as n^3
    n = int(rng.integers(3, 60 if rng.random() < 0.1 else 25))
    d = int(rng.integers(1, 4))
    if rng.random() < 0.5:
        points = rng.integers(0, 4, size=(n, d)).astype(float)
    else:
        distinct = rng.random((int(rng.integers(1, 6)), d))
        points = distinct[rng.integers(0, len(distinct), size=n)]
    return euclidean_distances(points)


# 3000-point linkage takes 0.2-0.9 s on a 2-core host, and over 10 s if
# each step scans the whole matrix; the budget leaves room for host drift
LARGE_LINKAGE_BUDGET_S = 3.0


class TestEuclideanDistances:
    def test_three_four_five(self):
        d = euclidean_distances([[0.0, 0.0], [3.0, 4.0]])
        assert d.condensed[0] == 5.0

    def test_identical_points(self):
        d = euclidean_distances([[2.0, 2.0], [2.0, 2.0]])
        assert d.condensed[0] == 0.0

    def test_line_points_condensed_order(self):
        d = euclidean_distances(line_points([0, 1, 5, 6]))
        assert np.array_equal(d.condensed, [1, 5, 6, 4, 5, 1])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            euclidean_distances([[0.0], [np.inf]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_distance_rejected_without_warning(self):
        with pytest.raises(ValidationError, match="distances must be finite"):
            euclidean_distances([[0.0], [1e155]])

    def test_rejects_single_point(self):
        with pytest.raises(ValidationError, match="at least 2 points"):
            euclidean_distances([[1.0, 2.0]])

    def test_rejects_points_past_the_matrix_ceiling_before_allocating(self):
        assert 8 * MAX_POINTS**2 <= 2 * 2**30
        points = np.zeros((MAX_POINTS + 1, 1))
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=f"{MAX_POINTS + 1} points exceed"):
                euclidean_distances(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * MAX_POINTS * 16  # far below the 0.5 n^2 condensed floats


class TestCompleteLinkage:
    def test_line_points_merge_sequence(self):
        dend = complete_linkage(euclidean_distances(line_points([0, 1, 5, 6])))
        assert dend.merges == (
            Merge(left=-1, right=-2, height=1.0, size=2),
            Merge(left=-3, right=-4, height=1.0, size=2),
            Merge(left=1, right=2, height=6.0, size=4),
        )

    def test_two_identical_points(self):
        dend = complete_linkage(euclidean_distances([[1.0], [1.0]]))
        assert dend.merges == (Merge(left=-1, right=-2, height=0.0, size=2),)

    def test_heights_non_decreasing(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            dend = complete_linkage(random_distance_matrix(rng))
            heights = [m.height for m in dend.merges]
            assert all(a <= b for a, b in zip(heights, heights[1:]))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            d = random_distance_matrix(rng)
            actual = dendrogram_as_member_merges(complete_linkage(d))
            expected = oracle_complete_linkage(d)
            assert same_merge_sequence(actual, expected)

    def test_tie_break_prefers_lowest_leaf(self):
        # equilateral situation: all three pairwise distances equal
        d = DistanceMatrix(n=3, condensed=np.array([1.0, 1.0, 1.0]), labels=("a", "b", "c"))
        dend = complete_linkage(d)
        assert dend.merges[0] == Merge(left=-1, right=-2, height=1.0, size=2)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(29)
        points = rng.standard_normal((20, 3))
        order = rng.permutation(20)
        part = cut(complete_linkage(euclidean_distances(points)), 4)
        part_perm = cut(complete_linkage(euclidean_distances(points[order])), 4)
        undone = np.empty(20, dtype=int)
        undone[order] = part_perm.assignment
        part_back = Partition(
            assignment=tuple(int(c) for c in undone), k=part_perm.k
        )
        assert adjusted_rand_index(part, part_back) == 1.0

    def test_single_leaf(self):
        d = DistanceMatrix(n=1, condensed=np.array([]), labels=("only",))
        dend = complete_linkage(d)
        assert dend.merges == ()
        assert dend.leaf_order() == [0]

    def test_duplicate_rows_chain_in_leaf_order_quickly(self):
        # rows 4..299 are one point: the tie rule grows a single chain from
        # leaf 4, adding the next leaf at each step
        points = np.random.default_rng(53).random((300, 3))
        points[4:] = points[4]
        d = euclidean_distances(points)
        start = time.perf_counter()
        dend = complete_linkage(d)
        elapsed = time.perf_counter() - start
        assert dend.merges[:295] == (Merge(-5, -6, 0.0, 2),) + tuple(
            Merge(s - 1, -(s + 5), 0.0, s + 1) for s in range(2, 296)
        )
        assert elapsed < 1.0

    def test_duplicate_grid_points_match_oracle(self):
        rng = np.random.default_rng(59)
        distinct = rng.integers(0, 4, size=(10, 2)).astype(float)
        points = np.vstack([distinct, distinct[rng.integers(0, 10, size=30)]])
        d = euclidean_distances(points[rng.permutation(40)])
        actual = dendrogram_as_member_merges(complete_linkage(d))
        assert same_merge_sequence(actual, oracle_complete_linkage(d))

    def test_tie_heavy_inputs_match_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            d = tie_heavy_distance_matrix(rng)
            actual = dendrogram_as_member_merges(complete_linkage(d))
            assert same_merge_sequence(actual, oracle_complete_linkage(d))

    @pytest.mark.parametrize("points", [
        np.random.default_rng(67).standard_normal((3000, 19)),
        np.ones((3000, 3)),
        np.array([[i % 55, i // 55] for i in range(3000)], dtype=float),
    ], ids=["normal", "identical", "grid"])
    def test_3000_points_within_budget(self, points):
        # identical points and a grid tie nearly every row: a step that let
        # them all go stale would rescan the whole matrix again
        d = euclidean_distances(points)
        start = time.perf_counter()
        dend = complete_linkage(d)
        elapsed = time.perf_counter() - start
        assert dend.merges[-1].size == 3000
        assert elapsed < LARGE_LINKAGE_BUDGET_S


class TestScipyOracle:
    """SciPy's complete linkage as a second oracle, on tie-free inputs only:
    SciPy breaks ties by its own rule."""

    @pytest.fixture(params=[20, 200])
    def case(self, request):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        points = np.random.default_rng(request.param).standard_normal((request.param, 3))
        d = euclidean_distances(points)
        return d, complete_linkage(d), hierarchy.linkage(d.condensed, "complete"), hierarchy

    def test_heights_bit_equal(self, case):
        _, dend, z, _ = case
        assert [m.height for m in dend.merges] == z[:, 2].tolist()

    def test_same_member_merges(self, case):
        d, dend, z, _ = case
        members = [frozenset([i]) for i in range(d.n)]
        expected = []
        for a, b, height, _ in z:
            left, right = members[int(a)], members[int(b)]
            members.append(left | right)
            expected.append((left, right, height))
        assert same_merge_sequence(dendrogram_as_member_merges(dend), expected)

    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_cut_matches_fcluster(self, case, k):
        _, dend, z, hierarchy = case
        ours = cut(dend, k).assignment
        theirs = hierarchy.fcluster(z, k, "maxclust").tolist()
        # equal up to relabelling: the label pairs form a bijection
        assert len(set(ours)) == len(set(theirs)) == len(set(zip(ours, theirs))) == k


class TestCut:
    def test_line_points_two_clusters(self):
        dend = complete_linkage(euclidean_distances(line_points([0, 1, 5, 6])))
        part = cut(dend, 2)
        assert part.assignment == (1, 1, 2, 2)

    def test_all_singletons(self):
        dend = complete_linkage(euclidean_distances(line_points([0, 1, 5, 6])))
        part = cut(dend, 4)
        assert part.assignment == (1, 2, 3, 4)

    def test_single_cluster(self):
        dend = complete_linkage(euclidean_distances(line_points([0, 1, 5, 6])))
        part = cut(dend, 1)
        assert part.assignment == (1, 1, 1, 1)

    def test_out_of_range(self):
        dend = complete_linkage(euclidean_distances(line_points([0, 1, 5])))
        with pytest.raises(ValidationError, match="outside"):
            cut(dend, 0)
        with pytest.raises(ValidationError, match="outside"):
            cut(dend, 4)

    def test_cut_refines_coarser_cut(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            d = random_distance_matrix(rng)
            dend = complete_linkage(d)
            for k in range(2, d.n + 1):
                fine = cut(dend, k)
                coarse = cut(dend, k - 1)
                containing = {}
                for item in range(d.n):
                    fine_id = fine.assignment[item]
                    if fine_id in containing:
                        assert containing[fine_id] == coarse.assignment[item]
                    else:
                        containing[fine_id] = coarse.assignment[item]

    def test_ids_follow_first_leaf_appearance(self):
        dend = complete_linkage(euclidean_distances(line_points([9, 0, 9.1])))
        part = cut(dend, 2)
        # leaf 0 first -> cluster 1, even though it merges late
        assert part.assignment[0] == 1
        assert part.assignment == (1, 2, 1)


class TestClusterVariables:
    def test_perfectly_correlated_merge_first_at_zero(self):
        rng = np.random.default_rng(37)
        base = rng.standard_normal(30)
        other = rng.standard_normal(30)
        table = standardize(make_table(np.column_stack([base, 2 * base + 1, other])))
        dend = cluster_variables(table)
        assert dend.merges[0].left == -1
        assert dend.merges[0].right == -2
        assert abs(dend.merges[0].height) < 1e-7

    def test_anticorrelated_distance_two_merges_last(self):
        rng = np.random.default_rng(41)
        base = rng.standard_normal(40)
        other = rng.standard_normal(40)
        table = standardize(make_table(np.column_stack([base, -base, other])))
        dend = cluster_variables(table)
        assert abs(dend.merges[-1].height - 2.0) < 1e-7

    def test_four_group_cut_on_nineteen_indicators(self):
        table = random_standardized_table(43)
        part = cut(cluster_variables(table), 4)
        assert part.k == 4
        assert part.n_items == 19

    def test_distance_is_sqrt_two_one_minus_r(self):
        table = random_standardized_table(47, n=50, p=4)
        from pcacluster.linalg import correlation_matrix

        corr = correlation_matrix(table).values
        dend_input = cluster_variables(table)
        # verify via the first merge: its height equals sqrt(2(1-r)) of
        # the closest variable pair
        expected = np.sqrt(2 * (1 - np.max(corr[np.triu_indices(4, 1)])))
        assert abs(dend_input.merges[0].height - expected) < 1e-12


class TestDendrogramType:
    def test_rejects_reused_node(self):
        with pytest.raises(ValidationError, match="merged twice"):
            Dendrogram(
                merges=(
                    Merge(-1, -2, 1.0, 2),
                    Merge(-1, -3, 2.0, 3),
                ),
                labels=("a", "b", "c"),
            )

    def test_rejects_decreasing_heights(self):
        with pytest.raises(ValidationError, match="non-decreasing"):
            Dendrogram(
                merges=(
                    Merge(-1, -2, 2.0, 2),
                    Merge(1, -3, 1.0, 3),
                ),
                labels=("a", "b", "c"),
            )

    def test_rejects_wrong_merge_count(self):
        with pytest.raises(ValidationError, match="expected 2 merges"):
            Dendrogram(merges=(Merge(-1, -2, 1.0, 2),), labels=("a", "b", "c"))

    def test_leaf_order_groups_merged_leaves(self):
        dend = complete_linkage(euclidean_distances(line_points([0, 5, 1, 6])))
        order = dend.leaf_order()
        assert sorted(order) == [0, 1, 2, 3]
        # leaves 0 and 2 merge first, so they are adjacent
        pos = {leaf: i for i, leaf in enumerate(order)}
        assert abs(pos[0] - pos[2]) == 1


    def test_leaf_order_of_a_deep_chain(self):
        # the shape duplicate rows build under the tie rule: each step
        # adds the next leaf to the cluster built so far
        n = 1500
        merges = [Merge(-1, -2, 0.0, 2)] + [
            Merge(step - 1, -(step + 1), 0.0, step + 1) for step in range(2, n)
        ]
        dend = Dendrogram(merges=merges, labels=tuple(str(i) for i in range(n)))
        assert dend.leaf_order() == list(range(n))
        flipped = Dendrogram(
            merges=[Merge(m.right, m.left, m.height, m.size) for m in merges],
            labels=dend.labels,
        )
        assert flipped.leaf_order() == list(range(n - 1, 1, -1)) + [1, 0]


class TestDistanceMatrixType:
    def test_full_is_symmetric_with_zero_diagonal(self):
        condensed = np.random.default_rng(71).random(15)
        d = DistanceMatrix(6, condensed, tuple("abcdef"))
        grid = np.zeros((6, 6))
        grid[np.triu_indices(6, 1)] = condensed
        assert np.array_equal(d.full(), grid + grid.T)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_distance(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            DistanceMatrix(3, [1.0, bad, 2.0], ("a", "b", "c"))


class TestPartitionType:
    def test_rejects_gap_in_ids(self):
        with pytest.raises(ValidationError, match="cover"):
            Partition(assignment=(1, 3, 3), k=3)

    def test_members(self):
        part = Partition(assignment=(1, 2, 1, 2), k=2)
        assert part.members(1) == [0, 2]
        assert part.members(2) == [1, 3]
