"""Synthetic indicator tables with planted cluster structure.

Cluster centers sit on random directions scaled so the minimum pairwise
center distance equals separation * within_sd; independent Gaussian
noise with the given within-cluster sd is added on top. Region blocks
are assigned to clusters in order, sizes as equal as the division
allows. Everything is a pure function of the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .hclust import Partition
from .ingest import IndicatorTable

DEFAULT_SEED = 20210907

_MAX_DIRECTION_DRAWS = 32


@dataclass(frozen=True)
class SyntheticSpec:
    n: int = 85
    p: int = 19
    clusters: int = 4
    separation: float = 6.0
    within_sd: float = 1.0
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.clusters < 1:
            raise ValidationError("need at least one cluster")
        if self.clusters > self.n:
            raise ValidationError(
                f"more clusters ({self.clusters}) than regions ({self.n})"
            )
        if self.n < 3 or self.p < 2:
            raise ValidationError(f"need n >= 3 and p >= 2, got n={self.n}, p={self.p}")
        if not 0 <= self.separation < math.inf:
            raise ValidationError(
                f"separation must be finite and non-negative, got {self.separation}"
            )
        if not 0 < self.within_sd < math.inf:
            raise ValidationError(
                f"within-cluster sd must be finite and positive, got {self.within_sd}"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")

    def cluster_sizes(self) -> list[int]:
        base, extra = divmod(self.n, self.clusters)
        return [base + (1 if c < extra else 0) for c in range(self.clusters)]


def _centers(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.clusters == 1 or spec.separation == 0.0:
        return np.zeros((spec.clusters, spec.p))
    for _ in range(_MAX_DIRECTION_DRAWS):
        directions = rng.standard_normal((spec.clusters, spec.p))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            continue
        directions /= norms
        gaps = [
            float(np.linalg.norm(directions[i] - directions[j]))
            for i in range(spec.clusters)
            for j in range(i + 1, spec.clusters)
        ]
        smallest = min(gaps)
        if smallest > 1e-6:
            return directions * (spec.separation * spec.within_sd / smallest)
    raise ValidationError(
        "could not draw distinct center directions; is p large enough "
        f"for {spec.clusters} clusters?"
    )


def generate_synthetic(spec: SyntheticSpec) -> tuple[IndicatorTable, Partition]:
    """Deterministic (table, truth-partition) pair for a planted mixture."""
    rng = np.random.default_rng(spec.seed)
    centers = _centers(spec, rng)
    sizes = spec.cluster_sizes()
    assignment = [c + 1 for c, size in enumerate(sizes) for _ in range(size)]
    truth = Partition(assignment=tuple(assignment), k=spec.clusters)
    noise = rng.standard_normal((spec.n, spec.p)) * spec.within_sd
    values = centers[np.asarray(assignment) - 1] + noise
    region_width = len(str(spec.n))
    indicator_width = len(str(spec.p))
    table = IndicatorTable(
        region_labels=tuple(f"R{i + 1:0{region_width}d}" for i in range(spec.n)),
        indicator_labels=tuple(f"V{j + 1:0{indicator_width}d}" for j in range(spec.p)),
        values=values,
    )
    return table, truth
