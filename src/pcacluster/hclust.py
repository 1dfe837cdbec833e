"""Agglomerative hierarchical clustering: complete linkage, Euclidean distance.

Merge records use signed node ids: -(i+1) is leaf i, a positive id is
the 1-based step that produced the cluster. Tie-breaks are fixed so
dendrograms are deterministic: among pairs at the minimal distance, the
pair whose combined leaf-index set is lexicographically smallest wins
(lowest original leaf index, then second-lowest, and so on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .ingest import IndicatorTable
from .linalg import correlation_matrix

_HEIGHT_SLACK = 1e-12


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
        grid = np.zeros((self.n, self.n))
        iu = np.triu_indices(self.n, 1)
        grid[iu] = self.condensed
        return grid + grid.T


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
    if not np.isfinite(grid).all():
        raise ValidationError("points contain non-finite values")
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    parts = [
        np.sqrt(((grid[i + 1 :] - grid[i]) ** 2).sum(axis=1))
        for i in range(n - 1)
    ]
    return DistanceMatrix(n=n, condensed=np.concatenate(parts), labels=labels)


def complete_linkage(d: DistanceMatrix) -> Dendrogram:
    """Agglomerate by repeatedly merging the closest pair of clusters,
    with inter-cluster distance the maximum pairwise item distance."""
    n = d.n
    if n == 1:
        return Dendrogram(merges=(), labels=d.labels)
    dist = d.full()
    np.fill_diagonal(dist, np.inf)
    members: list[tuple[int, ...] | None] = [(i,) for i in range(n)]
    node_id = [-(i + 1) for i in range(n)]
    merges: list[Merge] = []
    for step in range(1, n):
        height = float(dist.min())
        rows, cols = np.nonzero(dist == height)
        best: tuple[int, ...] | None = None
        best_pair = (-1, -1)
        for i, j in zip(rows, cols):
            if i >= j:
                continue
            key = tuple(sorted(members[i] + members[j]))
            if best is None or key < best:
                best = key
                best_pair = (int(i), int(j))
        i, j = best_pair
        first, second = (i, j) if members[i][0] < members[j][0] else (j, i)
        merges.append(
            Merge(left=node_id[first], right=node_id[second], height=height, size=len(best))
        )
        # slot i inherits the merged cluster via the complete-linkage
        # (maximum) distance update; slot j is retired
        merged_row = np.maximum(dist[i], dist[j])
        dist[i, :] = merged_row
        dist[:, i] = merged_row
        dist[i, i] = np.inf
        dist[j, :] = np.inf
        dist[:, j] = np.inf
        members[i] = best
        members[j] = None
        node_id[i] = step
    return Dendrogram(merges=tuple(merges), labels=d.labels)


def cut(dend: Dendrogram, k: int) -> Partition:
    """Flat partition from the first n-k merges; ids follow first-leaf order."""
    n = dend.n_leaves
    if not 1 <= k <= n:
        raise ValidationError(f"cut level {k} outside [1, {n}]")
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    representative: dict[int, int] = {-(i + 1): i for i in range(n)}
    for step, merge in enumerate(dend.merges[: n - k], start=1):
        a = find(representative[merge.left])
        b = find(representative[merge.right])
        parent[b] = a
        representative[step] = a
    cluster_ids: dict[int, int] = {}
    assignment = []
    for leaf in range(n):
        root = find(leaf)
        if root not in cluster_ids:
            cluster_ids[root] = len(cluster_ids) + 1
        assignment.append(cluster_ids[root])
    return Partition(assignment=tuple(assignment), k=len(cluster_ids))


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
