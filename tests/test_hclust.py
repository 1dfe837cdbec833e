from __future__ import annotations

import hashlib
import time
import tracemalloc

import numpy as np
import pytest

from pcacluster.concordance import adjusted_rand_index
from pcacluster.errors import ValidationError
from pcacluster.hclust import (
    _COLUMN_KERNEL_MAX_D,
    MAX_POINTS,
    Dendrogram,
    DistanceMatrix,
    Partition,
    cluster_variables,
    complete_linkage,
    cut,
    euclidean_distances,
)
from pcacluster.ingest import standardize
from pcacluster.pca import fit_pca

from helpers import (
    dendrogram_as_member_merges,
    make_table,
    oracle_complete_linkage,
    oracle_cut,
    oracle_dendrogram_error,
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


WIDTHS = sorted({1, 3, 7, 8, 9, 19, _COLUMN_KERNEL_MAX_D, _COLUMN_KERNEL_MAX_D + 1,
                 120, 128, 129})

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

    @pytest.mark.parametrize("points", [
        np.random.default_rng(71).standard_normal((400, 19)),
        np.repeat(np.random.default_rng(73).standard_normal((25, 4)), 8, axis=0),
        np.random.default_rng(79).standard_normal((300, 1)),
    ] + [
        # every summation regime: left to right, 8 accumulators with and
        # without tail columns, both sides of the column-kernel crossover,
        # and numpy's recursion past 128 columns
        np.random.default_rng(89 + d).standard_normal((120, d)) * 10.0 ** (np.arange(d) % 7 - 3)
        for d in WIDTHS
    ], ids=["random", "duplicate-rows", "one-column"] + [f"d={d}" for d in WIDTHS])
    def test_bit_equal_to_per_row_expression(self, points):
        n = len(points)
        expected = np.concatenate([
            np.sqrt(((points[i + 1 :] - points[i]) ** 2).sum(axis=1)) for i in range(n - 1)
        ])
        actual = euclidean_distances(points).condensed
        assert np.array_equal(actual.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("d, digest", [
        (3, "5d4162495d0f7cedf8c4ac873b17bc4c25a5176b9c42a275c281ce8cf25598ef"),
        (19, "1d76441fe78c81d2adc4d4b01dca0e2d7f56309782fc7ec7adfe177ef78a667f"),
    ])
    def test_pinned_bytes(self, d, digest):
        # exact inputs whose sums of squares round: only a change in the
        # summation order can move these bytes
        points = (np.arange(60 * d) * 37 % 101).reshape(60, d) / 7.0
        condensed = euclidean_distances(points).condensed
        assert hashlib.sha256(condensed.tobytes()).hexdigest() == digest

    def test_peak_memory_near_one_condensed_vector(self):
        points = np.random.default_rng(83).standard_normal((2000, 19))
        condensed_bytes = 8 * 2000 * 1999 // 2
        tracemalloc.start()
        try:
            euclidean_distances(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * condensed_bytes

    def test_peak_memory_above_the_output_at_paper_width(self):
        # the lanes, one squared-difference block and the transposed grid:
        # 1.45 MiB over the output, against 1.83 MiB when the lanes were
        # combined as overlapping strided views, which numpy copies first;
        # the bound leaves 0.15 MiB of margin
        points = np.random.default_rng(83).standard_normal((1000, 19))
        tracemalloc.start()
        try:
            d = euclidean_distances(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - d.condensed.nbytes < 1.6 * 2**20


class TestCompleteLinkage:
    def test_line_points_merge_sequence(self):
        dend = complete_linkage(euclidean_distances(line_points([0, 1, 5, 6])))
        assert dend.merges.tolist() == [[-1, -2, 1.0, 2], [-3, -4, 1.0, 2], [1, 2, 6.0, 4]]

    def test_two_identical_points(self):
        dend = complete_linkage(euclidean_distances([[1.0], [1.0]]))
        assert dend.merges.tolist() == [[-1, -2, 0.0, 2]]

    def test_heights_non_decreasing(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            dend = complete_linkage(random_distance_matrix(rng))
            heights = dend.merges[:, 2].tolist()
            assert all(a <= b for a, b in zip(heights, heights[1:]))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            d = random_distance_matrix(rng)
            expected = oracle_complete_linkage(d)  # before the linkage uses d up
            actual = dendrogram_as_member_merges(complete_linkage(d))
            assert same_merge_sequence(actual, expected)

    def test_tie_break_prefers_lowest_leaf(self):
        # equilateral situation: all three pairwise distances equal
        d = DistanceMatrix(n=3, condensed=np.array([1.0, 1.0, 1.0]), labels=("a", "b", "c"))
        dend = complete_linkage(d)
        assert dend.merges[0].tolist() == [-1, -2, 1.0, 2]

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
        assert dend.merges.shape == (0, 4)
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
        assert dend.merges[:295].tolist() == [[-5, -6, 0.0, 2]] + [
            [s - 1, -(s + 5), 0.0, s + 1] for s in range(2, 296)
        ]
        assert elapsed < 1.0

    def test_duplicate_grid_points_match_oracle(self):
        rng = np.random.default_rng(59)
        distinct = rng.integers(0, 4, size=(10, 2)).astype(float)
        points = np.vstack([distinct, distinct[rng.integers(0, 10, size=30)]])
        d = euclidean_distances(points[rng.permutation(40)])
        expected = oracle_complete_linkage(d)  # before the linkage uses d up
        actual = dendrogram_as_member_merges(complete_linkage(d))
        assert same_merge_sequence(actual, expected)

    def test_tie_heavy_inputs_match_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            d = tie_heavy_distance_matrix(rng)
            expected = oracle_complete_linkage(d)  # before the linkage uses d up
            actual = dendrogram_as_member_merges(complete_linkage(d))
            assert same_merge_sequence(actual, expected)

    def test_peak_memory_one_condensed_copy(self):
        # one working copy of the condensed distances; an n x n matrix is 2x
        d = euclidean_distances(np.random.default_rng(97).standard_normal((2000, 19)))
        tracemalloc.start()
        try:
            complete_linkage(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * d.condensed.nbytes

    def test_peak_memory_merges_in_the_distances_given(self):
        # the caches, the merge records and a column of the triangle: about
        # 0.05x the vector, against 1.05x when the linkage copied it
        d = euclidean_distances(np.random.default_rng(97).standard_normal((2000, 19)))
        tracemalloc.start()
        try:
            complete_linkage(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * d.condensed.nbytes

    def test_used_up_matrix_rejected(self):
        d = euclidean_distances(line_points([0, 1, 5, 6]))
        complete_linkage(d)
        assert np.isinf(d.condensed).all()
        with pytest.raises(ValidationError, match="^distance matrix already used up"):
            complete_linkage(d)

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
        assert dend.merges[-1, 3] == 3000
        assert elapsed < LARGE_LINKAGE_BUDGET_S


class TestScipyOracle:
    """SciPy's complete linkage as a second oracle, on tie-free inputs only:
    SciPy breaks ties by its own rule."""

    @pytest.fixture(params=[20, 200])
    def case(self, request):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        points = np.random.default_rng(request.param).standard_normal((request.param, 3))
        d = euclidean_distances(points)
        z = hierarchy.linkage(d.condensed, "complete")  # before the linkage uses d up
        return d, complete_linkage(d), z, hierarchy

    def test_heights_bit_equal(self, case):
        _, dend, z, _ = case
        assert dend.merges[:, 2].tolist() == z[:, 2].tolist()

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

    def test_matches_the_member_list_oracle(self):
        # chains of duplicate rows, ties on a coarse grid, and random points
        rng = np.random.default_rng(37)
        for case in range(60):
            n = int(rng.integers(2, 80))
            points = [np.zeros((n, 2)), rng.integers(0, 3, size=(n, 1)),
                      rng.standard_normal((n, 3))][case % 3]
            dend = complete_linkage(euclidean_distances(points))
            for k in range(1, n + 1):
                part = cut(dend, k)
                assert part.assignment == oracle_cut(dend, k) and part.k == k

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
        assert dend.merges[0, :2].tolist() == [-1, -2]
        assert abs(dend.merges[0, 2]) < 1e-7

    def test_anticorrelated_distance_two_merges_last(self):
        rng = np.random.default_rng(41)
        base = rng.standard_normal(40)
        other = rng.standard_normal(40)
        table = standardize(make_table(np.column_stack([base, -base, other])))
        dend = cluster_variables(table)
        assert abs(dend.merges[-1, 2] - 2.0) < 1e-7

    def test_four_group_cut_on_nineteen_indicators(self):
        table = random_standardized_table(43)
        part = cut(cluster_variables(table), 4)
        assert part.k == 4
        assert part.n_items == 19

    def test_distance_is_sqrt_two_one_minus_r(self):
        table = random_standardized_table(47, n=50, p=4)
        from pcacluster.linalg import correlation_matrix

        corr = correlation_matrix(table)
        dend_input = cluster_variables(table)
        # verify via the first merge: its height equals sqrt(2(1-r)) of
        # the closest variable pair
        expected = np.sqrt(2 * (1 - np.max(corr[np.triu_indices(4, 1)])))
        assert abs(dend_input.merges[0, 2] - expected) < 1e-12


class TestDendrogramType:
    def test_merges_are_a_locked_copy_of_the_rows_given(self):
        rows = np.array([[-1, -2, 1.0, 2], [1, -3, 2.0, 3]])
        dend = Dendrogram(merges=rows, labels=("a", "b", "c"))
        assert dend.merges.dtype == np.float64 and dend.merges.shape == (2, 4)
        assert dend.merges is not rows and rows.flags.writeable
        with pytest.raises(ValueError):
            dend.merges[0, 2] = 0.0
        assert Dendrogram(merges=np.empty((0, 4)), labels=("only",)).merges.shape == (0, 4)

    def test_rejects_reused_node(self):
        with pytest.raises(ValidationError, match="merged twice"):
            Dendrogram(merges=[[-1, -2, 1.0, 2], [-1, -3, 2.0, 3]], labels=("a", "b", "c"))

    def test_rejects_decreasing_heights(self):
        with pytest.raises(ValidationError, match="non-decreasing"):
            Dendrogram(merges=[[-1, -2, 2.0, 2], [1, -3, 1.0, 3]], labels=("a", "b", "c"))

    def test_rejects_wrong_merge_count(self):
        with pytest.raises(ValidationError, match="expected 2 merges"):
            Dendrogram(merges=[[-1, -2, 1.0, 2]], labels=("a", "b", "c"))

    @pytest.mark.parametrize("merges, message", [
        (((-1, -2), (2, -3)), "node id 2 invalid at step 2"),  # its own step
        (((-1, -2), (-3, 3)), "node id 3 invalid at step 2"),  # a later step
        (((-1, -2), (0, -3)), "node id 0 invalid at step 2"),  # no node
        (((-4, -1), (1, -3)), "node id -4 invalid at step 1"),  # past the last leaf
        (((-1, -2), (0.5, -3)), "node id 0.5 invalid at step 2"),  # not a whole number
        (((-1, -2), (np.nan, -3)), "node id nan invalid at step 2"),
    ], ids=["own-step", "later-step", "zero", "past-last-leaf", "fraction", "nan"])
    def test_rejects_invalid_node_id(self, merges, message):
        (a, b), (c, d) = merges
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Dendrogram(merges=[[a, b, 1.0, 2], [c, d, 2.0, 3]], labels=("a", "b", "c"))

    def test_first_error_matches_the_loop_oracle(self):
        # linkages of up to 7 points with up to three cells replaced by a
        # node id, a height or a size that may break a check
        rng = np.random.default_rng(41)
        messages = set()
        for _ in range(4000):
            n = int(rng.integers(2, 8))
            merges = complete_linkage(euclidean_distances(rng.random((n, 1)))).merges.copy()
            for _ in range(int(rng.integers(0, 4))):
                row, column = int(rng.integers(n - 1)), int(rng.integers(4))
                ids = [-(n + 1), -n, -1, 0, 0.5, np.nan, np.inf, row + 1, row, 1, 2]
                heights = [0.0, -1.0, merges[row, 2] - 1e-13, merges[row, 2] - 1e-11, np.nan]
                choices = (ids, ids, heights, [n, n - 1, 1.5])[column]
                merges[row, column] = choices[int(rng.integers(len(choices)))]
            expected = oracle_dendrogram_error(merges, n)
            try:
                Dendrogram(merges=merges, labels=tuple(map(str, range(n))))
                actual = None
            except ValidationError as exc:
                actual = str(exc)
            assert actual == expected, merges.tolist()
            messages.add(expected and expected.split()[-1])
        assert messages == {None, "twice", *map(str, range(1, 7)), "non-decreasing", "leaf"}

    def test_rejects_final_merge_missing_leaves(self):
        with pytest.raises(ValidationError, match="^final merge must contain every leaf$"):
            Dendrogram(merges=[[-1, -2, 1.0, 2], [1, -3, 2.0, 2]], labels=("a", "b", "c"))

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
        merges = [[-1, -2, 0.0, 2]] + [[step - 1, -(step + 1), 0.0, step + 1]
                                        for step in range(2, n)]
        dend = Dendrogram(merges=merges, labels=tuple(str(i) for i in range(n)))
        assert dend.leaf_order() == list(range(n))
        flipped = Dendrogram(
            merges=[[right, left, height, size] for left, right, height, size in merges],
            labels=dend.labels,
        )
        assert flipped.leaf_order() == list(range(n - 1, 1, -1)) + [1, 0]


class TestDistanceMatrixType:
    def test_adopts_an_owned_float64_vector_and_copies_anything_else(self):
        labels = ("a", "b", "c")
        owned = np.array([1.0, 2.0, 3.0])
        d = DistanceMatrix(3, owned, labels)
        assert d.condensed is owned and d.condensed.flags.writeable
        locked = np.array([1.0, 2.0, 3.0])
        locked.flags.writeable = False
        for condensed in (locked, np.array([0.0, 1.0, 2.0, 3.0])[1:], np.array([1, 2, 3]),
                          np.array([1.0, 2.0, 3.0], dtype=np.float32)):
            d = DistanceMatrix(3, condensed, labels)
            assert not np.shares_memory(d.condensed, condensed)
            assert d.condensed.dtype == np.float64 and d.condensed.flags.owndata
            assert d.condensed.flags.writeable
        assert not locked.flags.writeable
        assert DistanceMatrix(3, [1.0, 2.0, 3.0], labels).condensed.tolist() == [1.0, 2.0, 3.0]

    def test_locked_vectors_keep_their_values_and_lock_through_a_linkage(self):
        locked = np.array([1.0, 2.0, 3.0])
        locked.flags.writeable = False
        eigenvalues = fit_pca(random_standardized_table(53, n=20, p=3)).eigen.eigenvalues
        for vector in (locked, eigenvalues):
            before = vector.copy()
            complete_linkage(DistanceMatrix(3, vector, ("a", "b", "c")))
            assert np.array_equal(vector, before) and not vector.flags.writeable

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_distance(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            DistanceMatrix(3, [1.0, bad, 2.0], ("a", "b", "c"))

    @pytest.mark.parametrize("condensed, message", [
        ([1.0, -float("inf"), 2.0], "distances must be finite"),
        ([-1.0, float("nan"), 2.0], "distances must be finite"),
        ([1.0, -0.5, 2.0], "distances must be non-negative"),
    ], ids=["-inf", "negative-and-nan", "negative"])
    def test_validation_messages(self, condensed, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            DistanceMatrix(3, condensed, ("a", "b", "c"))

    def test_negative_zero_is_a_distance(self):
        d = DistanceMatrix(3, [1.0, -0.0, 2.0], ("a", "b", "c"))
        assert d.condensed[1] == 0.0

    def test_validation_allocates_no_temporary(self):
        n = 2000
        # writable, so the matrix adopts it and only the checks could allocate
        condensed = np.random.default_rng(127).uniform(size=n * (n - 1) // 2)
        labels = tuple(f"L{i}" for i in range(n))
        tracemalloc.start()
        try:
            DistanceMatrix(n, condensed, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * condensed.nbytes


class TestPartitionType:
    def test_rejects_gap_in_ids(self):
        with pytest.raises(ValidationError, match="cover"):
            Partition(assignment=(1, 3, 3), k=3)

    def test_members(self):
        part = Partition(assignment=(1, 2, 1, 2), k=2)
        assert part.members(1) == [0, 2]
        assert part.members(2) == [1, 3]
