"""Agglomerative hierarchical clustering: complete linkage, Euclidean distance.

A dendrogram's merges are an (n-1) x 4 float64 array, a row per step, in
the columns of SciPy's linkage matrix: left, right, height, size. Node
ids are signed: -(i+1) is leaf i, a positive id the 1-based step that
made the cluster. Tie-breaks are fixed so dendrograms are deterministic:
among pairs at the minimal distance, the pair whose combined leaf-index
set is lexicographically smallest wins (lowest original leaf index, then
second-lowest, and so on). Clusters are disjoint and each keeps the slot
of its smallest leaf, so that pair is the smallest slot pair i < j: the
distance matrix's first minimum.

Linkage follows the generic algorithm of Müllner 2011 ("Modern
hierarchical, agglomerative clustering algorithms", arXiv:1109.2378), in
condensed storage: the upper triangle, row-major, merged in the vector
the distances came in. Each row caches the first minimum of its part
right of the diagonal, and the cache is refreshed lazily. Complete-linkage
distances never shrink, and a retired slot's entries turn infinite, so a
cached minimum is a lower bound of its row's minimum. Each step takes the
first row with the least cached value; if the entry at its cached column
still equals that value, the row holds it as its first minimum, and every
earlier row's minimum is larger. The matrix is symmetric, so that row and
column are the first minimum in row-major order: the tie rule above.
Otherwise the row is rescanned and the search repeated. Retired slot j
leaves the cache at once: mind[j] = inf, so it is never picked; a row
whose cached column was j fails the check, as its entry there is now
infinite, and its rescan cannot land on j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .ingest import IndicatorTable
from .linalg import correlation_matrix

_HEIGHT_SLACK = 1e-12
# euclidean_distances sums grids of at most _COLUMN_KERNEL_MAX_D columns a
# column at a time, in blocks of rows whose temporaries hold _BLOCK_CELLS
# floats per accumulator; on a 2-core host at n=1000 the per-row loop is as
# fast at 48 columns and 1.3x faster at 120
_COLUMN_KERNEL_MAX_D = 32
_BLOCK_CELLS = 16384
# the condensed distance vector of MAX_POINTS points, which complete linkage
# merges in, takes 1 GiB
MAX_POINTS = 16384


def check_points(n: int, noun: str) -> None:
    """Reject more than MAX_POINTS points before the distances are built."""
    if n > MAX_POINTS:
        raise ValidationError(
            f"{n} {noun} exceed the {MAX_POINTS}-point limit of the "
            f"condensed distance vector ({4 * MAX_POINTS**2 / 2**30:g} GiB)"
        )


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Condensed pairwise distances over n labeled items.

    complete_linkage merges in `condensed` itself: it overwrites the vector
    and uses up the matrix, so each matrix can be linked once.
    """

    n: int
    condensed: np.ndarray  # upper triangle, row-major, length n(n-1)/2
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        condensed = self.condensed
        # a writable float64 array that owns its data becomes the matrix's
        # own, for the linkage to merge in; anything else (a list, a view,
        # another dtype, a write-locked array) is copied, never unlocked
        if not (isinstance(condensed, np.ndarray) and condensed.dtype == np.float64
                and condensed.flags.owndata and condensed.flags.writeable):
            condensed = np.array(condensed, dtype=float)
        expected = self.n * (self.n - 1) // 2
        if condensed.shape != (expected,):
            raise ValidationError(
                f"condensed length {condensed.shape} does not match n={self.n}"
            )
        if len(self.labels) != self.n:
            raise ValidationError("label count does not match n")
        # one min and one max and no boolean temporaries: NaN propagates
        # into both, and any infinity is one of them
        if condensed.size:
            low, high = float(condensed.min()), float(condensed.max())
            if not (math.isfinite(low) and math.isfinite(high)):
                raise ValidationError("distances must be finite")
            if low < 0:
                raise ValidationError("distances must be non-negative")
        object.__setattr__(self, "condensed", condensed)
        object.__setattr__(self, "labels", tuple(self.labels))


@dataclass(frozen=True, eq=False)
class Dendrogram:
    """Full agglomeration history over the labeled leaves."""

    merges: np.ndarray  # (n-1) x 4, write-locked: left, right, height, size
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        merges = np.array(self.merges, dtype=float)
        merges.flags.writeable = False
        object.__setattr__(self, "merges", merges)
        object.__setattr__(self, "labels", tuple(self.labels))
        n = len(self.labels)
        if merges.shape != (n - 1, 4):
            raise ValidationError(f"expected {n - 1} merges for {n} leaves")
        # the checks of a walk over the steps, each step's left node, right
        # node, then height, made whole-array: the first failure is raised.
        # A node is bad if an earlier node equals it (merged twice), or if it
        # is neither a leaf -n..-1 nor an earlier step; a stable sort puts
        # each later copy of a value after its first
        nodes = merges[:, :2].ravel()
        steps = np.arange(2, 2 * n) // 2
        with np.errstate(invalid="ignore"):
            invalid = (np.trunc(nodes) != nodes) | (nodes >= steps) | (nodes == 0) | (nodes < -n)
        order = np.argsort(nodes, kind="stable")
        twice = np.zeros(nodes.size, dtype=bool)
        twice[order[1:][nodes[order[1:]] == nodes[order[:-1]]]] = True
        bad = np.flatnonzero(twice | invalid)
        falls = np.flatnonzero(merges[1:, 2] < merges[:-1, 2] - _HEIGHT_SLACK) + 2  # steps
        if bad.size and not (falls.size and falls[0] < bad[0] // 2 + 1):
            node, step = float(nodes[bad[0]]), bad[0] // 2 + 1
            name = int(node) if node.is_integer() else node
            if twice[bad[0]]:
                raise ValidationError(f"node {name} merged twice")
            raise ValidationError(f"node id {name} invalid at step {step}")
        if falls.size:
            raise ValidationError("merge heights must be non-decreasing")
        if n > 1 and merges[-1, 3] != n:
            raise ValidationError("final merge must contain every leaf")

    def __setstate__(self, state: dict) -> None:
        # an unpickled copy, one from a forked process say, is locked too
        state["merges"].flags.writeable = False
        self.__dict__.update(state)

    @property
    def n_leaves(self) -> int:
        return len(self.labels)

    def leaf_order(self) -> list[int]:
        """Left-to-right leaf indices as drawn, left child before right."""
        # an explicit stack, not recursion: duplicate rows chain merges
        # deeper than the recursion limit; with no merges the root is leaf 0
        children = self.merges[:, :2].astype(int).tolist()
        order: list[int] = []
        stack = [len(children) or -1]
        while stack:
            node = stack.pop()
            if node < 0:
                order.append(-node - 1)
            else:
                stack += children[node - 1][::-1]  # right, then left
        return order


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of each item to a cluster id in 1..k, every id used."""

    assignment: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", tuple(int(c) for c in self.assignment))
        used = set(self.assignment)
        if self.k < 1 or used != set(range(1, self.k + 1)):
            raise ValidationError(
                f"cluster ids must cover 1..{self.k} exactly, got {sorted(used)}"
            )

    @property
    def n_items(self) -> int:
        return len(self.assignment)

    def members(self, cluster_id: int) -> list[int]:
        return [i for i, c in enumerate(self.assignment) if c == cluster_id]


def euclidean_distances(points, labels: tuple[str, ...] | None = None) -> DistanceMatrix:
    """Pairwise Euclidean distances between the rows of an n x d grid.

    Entry (i, k), i < k, is sqrt(((grid[k] - grid[i]) ** 2).sum()) with the
    squares summed in numpy's pairwise order, the contract that keeps the
    heights bit-stable: below 8 columns left to right; from 8 to 128
    columns, column c into accumulator c mod 8 up to the last multiple of
    8, the accumulators combined as ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)),
    then the remaining columns added in order. Grids of up to
    _COLUMN_KERNEL_MAX_D columns are summed in that order a column at a
    time; wider ones row by row with numpy's own sum, which recurses in
    halves above 128 columns.
    """
    grid = np.asarray(points, dtype=float)
    if grid.ndim != 2:
        raise ValidationError("points must be a 2-D grid")
    n, d = grid.shape
    if n < 2 or d < 1:
        raise ValidationError(f"need at least 2 points of dimension >= 1, got {n}x{d}")
    check_points(n, "points")
    if not np.isfinite(grid).all():
        raise ValidationError("points contain non-finite values")
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    condensed = np.empty(n * (n - 1) // 2)
    # an overflow becomes inf, which DistanceMatrix rejects
    with np.errstate(over="ignore"):
        if d <= _COLUMN_KERNEL_MAX_D:
            _squared_distances_by_column(grid, condensed)
        else:
            _squared_distances_by_row(grid, condensed)
        np.sqrt(condensed, out=condensed)
    return DistanceMatrix(n=n, condensed=condensed, labels=labels)


def _squared_distances_by_row(grid: np.ndarray, condensed: np.ndarray) -> None:
    """Row i's squared distances as ((grid[i + 1:] - grid[i]) ** 2).sum(axis=1),
    computed in one reused difference buffer and written into place."""
    n, d = grid.shape
    diff = np.empty((n - 1, d))
    start = 0
    for i in range(n - 1):
        block = diff[: n - 1 - i]
        np.subtract(grid[i + 1 :], grid[i], out=block)
        np.multiply(block, block, out=block)
        block.sum(axis=1, out=condensed[start : start + len(block)])
        start += len(block)


def _squared_distances_by_column(grid: np.ndarray, condensed: np.ndarray) -> None:
    """The sums of _squared_distances_by_row, in the same order, for a block
    of rows against all later rows at once, one column at a time."""
    n, d = grid.shape
    columns = np.ascontiguousarray(grid.T)
    paired = d - d % 8  # the columns summed in 8 accumulators
    cells = max(_BLOCK_CELLS, n - 1)  # room for at least one row
    lanes = np.empty((8 if paired else 1, cells))
    square = np.empty(cells)

    def square_diff(c: int, a: int, b: int, out: np.ndarray) -> np.ndarray:
        np.subtract(columns[c, a + 1 :], columns[c, a:b, None], out=out)
        return np.multiply(out, out, out=out)

    start = 0
    a = 0
    while a < n - 1:
        # rows a..b-1 against rows a+1..n-1: row a+t's squared distances
        # are row t of the block right of its first t cells
        width = n - 1 - a
        b = min(n - 1, a + cells // width)
        shape = (b - a, width)
        acc = lanes[:, : (b - a) * width].reshape(-1, *shape)
        sq = square[: (b - a) * width].reshape(shape)
        for c in range(paired):
            if c < 8:
                square_diff(c, a, b, acc[c])
            else:
                acc[c % 8] += square_diff(c, a, b, sq)
        if paired:
            # ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)) a pair at a time: a strided
            # view added into an overlapping one would be copied first
            for step in (1, 2, 4):
                for k in range(0, 8, 2 * step):
                    acc[k] += acc[k + step]
        total = acc[0]
        for c in range(paired, d):
            if c == 0:
                square_diff(c, a, b, total)
            else:
                total += square_diff(c, a, b, sq)
        for t in range(b - a):
            condensed[start : start + width - t] = total[t, t:]
            start += width - t
        a = b


def complete_linkage(d: DistanceMatrix) -> Dendrogram:
    """Agglomerate by repeatedly merging the closest pair of clusters,
    with inter-cluster distance the maximum pairwise item distance.

    The merging happens in d.condensed: the linkage overwrites the vector
    and uses up the matrix. Linking a used-up matrix raises ValidationError.
    """
    n = d.n
    dist = d.condensed
    # a finished linkage leaves every entry infinite, an interrupted one
    # some; a fresh matrix has none
    if dist.size and not math.isfinite(float(dist.max())):
        raise ValidationError(
            "distance matrix already used up: complete_linkage merges in its "
            "vector, so each matrix can be linked once"
        )
    # row r right of the diagonal is dist[start[r] : start[r] + n-1-r]; entry
    # (k, c) with k < c sits at start[k] - k + c - 1, so column c above the
    # diagonal is dist[c - 1 :][above[:c]] (empty for c = 0)
    rows = np.arange(n)
    above = rows * (2 * n - rows - 3) // 2
    start = (above + rows).tolist()
    # nn[r] is the first argmin of row r right of the diagonal when it was
    # last scanned, mind[r] its value then; a retired slot has nn -1 and mind inf
    nn = np.full(n, -1)
    mind = np.full(n, np.inf)

    def rescan(r: int) -> None:
        row = dist[start[r] : start[r] + n - 1 - r]
        c = int(row.argmin())
        nn[r] = r + 1 + c
        mind[r] = row[c]

    for r in range(n - 1):
        rescan(r)
    size = [1] * n
    node_id = [-(i + 1) for i in range(n)]
    merges = []
    for step in range(1, n):
        # the first row with the least bound whose cached entry still holds
        # it: the distance matrix's row-major first minimum
        while True:
            i = int(mind.argmin())
            j = int(nn[i])
            if dist[start[i] + j - i - 1] == mind[i]:
                break
            rescan(i)
        size[i] += size[j]
        merges.append((node_id[i], node_id[j], mind[i], size[i]))
        # slot i inherits the merged cluster via the complete-linkage
        # (maximum) distance update, in three parts: the rows k < i above
        # both, the rows i < k < j between them and the columns k > j
        # right of both; slot j is retired, its entries set to inf
        si, sj = start[i], start[j]
        at_j, at_i = dist[j - 1 :], dist[i - 1 :]
        col_j = at_j[above[:j]]
        at_j[above[:j]] = np.inf
        at_i[above[:i]] = np.maximum(at_i[above[:i]], col_j[:i])
        between = dist[si : si + j - i - 1]
        np.maximum(between, col_j[i + 1 :], out=between)
        right = dist[si + j - i : si + n - 1 - i]
        np.maximum(right, dist[sj : sj + n - 1 - j], out=right)
        dist[sj : sj + n - 1 - j] = np.inf
        nn[j] = -1
        mind[j] = np.inf
        node_id[i] = step
    return Dendrogram(merges=np.reshape(merges, (n - 1, 4)), labels=d.labels)


def cut(dend: Dendrogram, k: int) -> Partition:
    """Flat partition from the first n-k merges; ids follow first-leaf order."""
    n = dend.n_leaves
    if not 1 <= k <= n:
        raise ValidationError(f"cut level {k} outside [1, {n}]")
    # each node's topmost ancestor among the first n-k steps, by pointer
    # jumping: each pass doubles how far a pointer reaches, so bit_length(n)
    # whole-array passes reach the top on any dendrogram shape. A node's id
    # plus n indexes it: leaf i at n - 1 - i, step s at n + s
    top = np.arange(2 * n)
    children = dend.merges[: n - k, :2].astype(np.intp).ravel()
    top[children + n] = np.arange(n + 1, 2 * n - k + 1).repeat(2)
    for _ in range(n.bit_length()):
        top = top[top]
    # a cluster's id is the rank of its first leaf
    ids: dict[int, int] = {}
    assignment = tuple(ids.setdefault(root, len(ids) + 1) for root in top[n - 1::-1].tolist())
    return Partition(assignment=assignment, k=len(ids))


def cluster_variables(table: IndicatorTable) -> Dendrogram:
    """Complete-linkage dendrogram over the indicators.

    Variable distance is sqrt(2(1 - r)) for correlation r, i.e. the
    Euclidean distance between the standardized columns rescaled by
    1/sqrt(n-1); complete linkage ranks pairs identically either way.
    """
    corr = correlation_matrix(table)
    p = corr.shape[0]
    iu = np.triu_indices(p, 1)
    condensed = np.sqrt(np.maximum(2.0 * (1.0 - corr[iu]), 0.0))
    return complete_linkage(
        DistanceMatrix(n=p, condensed=condensed, labels=table.indicator_labels)
    )
