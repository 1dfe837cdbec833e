"""Agglomerative hierarchical clustering: complete linkage, Euclidean distance.

Merge records use signed node ids: -(i+1) is leaf i, a positive id is
the 1-based step that produced the cluster. Tie-breaks are fixed so
dendrograms are deterministic: among pairs at the minimal distance, the
pair whose combined leaf-index set is lexicographically smallest wins
(lowest original leaf index, then second-lowest, and so on). Clusters
are disjoint and each keeps the slot of its smallest leaf, so that pair
is the smallest slot pair i < j: the distance matrix's first minimum.

Linkage follows the generic algorithm of Müllner 2011 ("Modern
hierarchical, agglomerative clustering algorithms", arXiv:1109.2378):
each row caches the first minimum of its upper triangle, right of the
diagonal. The matrix is symmetric, so the first row that holds the global
minimum holds it right of its diagonal, and that row's cached column is
the first minimum in row-major order: the tie rule above. After merging
i < j only row i and the rows whose cached column was i or j can move
their first minimum: complete-linkage distances never shrink, and any
other row's cached column keeps its value. Retired slot j leaves the
cache at once: mind[j] = inf, so it is never picked; nn[j] = -1, so no
merge marks it stale and no rescan revives it; and its column turns
infinite, so no live row's rescan lands on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .ingest import IndicatorTable
from .linalg import correlation_matrix

_HEIGHT_SLACK = 1e-12
# the n x n float64 matrix of MAX_POINTS points takes 2 GiB
MAX_POINTS = 16384


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Condensed pairwise distances over n labeled items."""

    n: int
    condensed: np.ndarray  # upper triangle, row-major, length n(n-1)/2
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        condensed = np.array(self.condensed, dtype=float)
        expected = self.n * (self.n - 1) // 2
        if condensed.shape != (expected,):
            raise ValidationError(
                f"condensed length {condensed.shape} does not match n={self.n}"
            )
        if len(self.labels) != self.n:
            raise ValidationError("label count does not match n")
        if not np.isfinite(condensed).all():
            raise ValidationError("distances must be finite")
        if np.any(condensed < 0):
            raise ValidationError("distances must be non-negative")
        condensed.flags.writeable = False
        object.__setattr__(self, "condensed", condensed)
        object.__setattr__(self, "labels", tuple(self.labels))

    def full(self) -> np.ndarray:
        """The symmetric n x n matrix with a zero diagonal, filled in place."""
        grid = np.zeros((self.n, self.n))
        start = 0
        for i in range(self.n - 1):
            row = self.condensed[start : start + self.n - 1 - i]
            grid[i, i + 1 :] = row
            grid[i + 1 :, i] = row
            start += row.size
        return grid


@dataclass(frozen=True)
class Merge:
    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True, eq=False)
class Dendrogram:
    """Full agglomeration history over the labeled leaves."""

    merges: tuple[Merge, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "merges", tuple(self.merges))
        object.__setattr__(self, "labels", tuple(self.labels))
        n = len(self.labels)
        if len(self.merges) != n - 1:
            raise ValidationError(f"expected {n - 1} merges for {n} leaves")
        seen: set[int] = set()
        for step, merge in enumerate(self.merges, start=1):
            for node in (merge.left, merge.right):
                if node in seen:
                    raise ValidationError(f"node {node} merged twice")
                if node >= step or node == 0 or node < -n:
                    raise ValidationError(f"node id {node} invalid at step {step}")
                seen.add(node)
            if step > 1 and merge.height < self.merges[step - 2].height - _HEIGHT_SLACK:
                raise ValidationError("merge heights must be non-decreasing")
        if self.merges and self.merges[-1].size != n:
            raise ValidationError("final merge must contain every leaf")

    @property
    def n_leaves(self) -> int:
        return len(self.labels)

    def leaf_order(self) -> list[int]:
        """Left-to-right leaf indices as drawn, left child before right."""
        # an explicit stack, not recursion: duplicate rows chain merges
        # deeper than the recursion limit; with no merges the root is leaf 0
        order: list[int] = []
        stack = [len(self.merges) or -1]
        while stack:
            node = stack.pop()
            if node < 0:
                order.append(-node - 1)
            else:
                merge = self.merges[node - 1]
                stack += [merge.right, merge.left]
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
    """Pairwise Euclidean distances between the rows of an n x d grid."""
    grid = np.asarray(points, dtype=float)
    if grid.ndim != 2:
        raise ValidationError("points must be a 2-D grid")
    n, d = grid.shape
    if n < 2 or d < 1:
        raise ValidationError(f"need at least 2 points of dimension >= 1, got {n}x{d}")
    if n > MAX_POINTS:
        raise ValidationError(
            f"{n} points exceed the {MAX_POINTS}-point limit of the "
            "n x n distance matrix (2 GiB)"
        )
    if not np.isfinite(grid).all():
        raise ValidationError("points contain non-finite values")
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    # an overflow becomes inf, which DistanceMatrix rejects
    with np.errstate(over="ignore"):
        parts = [
            np.sqrt(((grid[i + 1 :] - grid[i]) ** 2).sum(axis=1))
            for i in range(n - 1)
        ]
    return DistanceMatrix(n=n, condensed=np.concatenate(parts), labels=labels)


def complete_linkage(d: DistanceMatrix) -> Dendrogram:
    """Agglomerate by repeatedly merging the closest pair of clusters,
    with inter-cluster distance the maximum pairwise item distance."""
    n = d.n
    dist = d.full()
    np.fill_diagonal(dist, np.inf)
    # nn[r] is the first argmin of row r right of the diagonal, mind[r] its
    # value; a retired slot has nn -1 and mind inf
    nn = np.full(n, -1)
    mind = np.full(n, np.inf)

    def rescan(r: int) -> None:
        row = dist[r, r + 1 :]
        c = int(row.argmin())
        nn[r] = r + 1 + c
        mind[r] = row[c]

    for r in range(n - 1):
        rescan(r)
    size = [1] * n
    node_id = [-(i + 1) for i in range(n)]
    merges: list[Merge] = []
    for step in range(1, n):
        # the first row holding the minimum, at its first column: the
        # distance matrix's row-major first minimum
        i = int(mind.argmin())
        j = int(nn[i])
        size[i] += size[j]
        merges.append(Merge(node_id[i], node_id[j], float(mind[i]), size[i]))
        # slot i inherits the merged cluster via the complete-linkage
        # (maximum) distance update; slot j is retired, its row never read
        # again (the infinite diagonal makes merged_row infinite at i and j)
        merged_row = np.maximum(dist[i], dist[j])
        dist[i, :] = merged_row
        dist[:, i] = merged_row
        dist[:, j] = np.inf
        nn[j] = -1
        mind[j] = np.inf
        node_id[i] = step
        # row i (whose nn was j) and the rows that pointed at i or j are
        # stale; every other row's first argmin stands
        for r in np.flatnonzero((nn == i) | (nn == j)).tolist():
            rescan(r)
    return Dendrogram(merges=tuple(merges), labels=d.labels)


def cut(dend: Dendrogram, k: int) -> Partition:
    """Flat partition from the first n-k merges; ids follow first-leaf order."""
    n = dend.n_leaves
    if not 1 <= k <= n:
        raise ValidationError(f"cut level {k} outside [1, {n}]")
    # merge member lists small into large: O(n log n) on any dendrogram shape
    members = {-(i + 1): [i] for i in range(n)}
    for step, merge in enumerate(dend.merges[: n - k], start=1):
        small, large = sorted((members.pop(merge.left), members.pop(merge.right)), key=len)
        large += small
        members[step] = large
    assignment = [0] * n
    for cluster_id, leaves in enumerate(sorted(members.values(), key=min), start=1):
        for leaf in leaves:
            assignment[leaf] = cluster_id
    return Partition(assignment=tuple(assignment), k=len(members))


def cluster_variables(table: IndicatorTable) -> Dendrogram:
    """Complete-linkage dendrogram over the indicators.

    Variable distance is sqrt(2(1 - r)) for correlation r, i.e. the
    Euclidean distance between the standardized columns rescaled by
    1/sqrt(n-1); complete linkage ranks pairs identically either way.
    """
    corr = correlation_matrix(table).values
    p = corr.shape[0]
    iu = np.triu_indices(p, 1)
    condensed = np.sqrt(np.maximum(2.0 * (1.0 - corr[iu]), 0.0))
    return complete_linkage(
        DistanceMatrix(n=p, condensed=condensed, labels=table.indicator_labels)
    )
