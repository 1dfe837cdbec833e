from __future__ import annotations

import warnings

import numpy as np
import pytest

from pcacluster.concordance import adjusted_rand_index
from pcacluster.errors import NumericalError, ValidationError
from pcacluster.hclust import complete_linkage, cut, euclidean_distances
from pcacluster.ingest import standardize
from pcacluster.synth import SyntheticSpec, generate_synthetic


def recovered_partition(table, k):
    z = standardize(table)
    return cut(complete_linkage(euclidean_distances(z.values)), k)


class TestSyntheticSpec:
    def test_sizes_near_equal_and_sum_to_n(self):
        spec = SyntheticSpec(n=85, p=19, clusters=4, separation=6.0)
        sizes = spec.cluster_sizes()
        assert sum(sizes) == 85
        assert max(sizes) - min(sizes) <= 1

    def test_more_clusters_than_regions_rejected(self):
        with pytest.raises(ValidationError, match="more clusters"):
            SyntheticSpec(n=5, p=3, clusters=6, separation=1.0)

    def test_negative_separation_rejected(self):
        with pytest.raises(ValidationError, match="separation"):
            SyntheticSpec(n=10, p=3, clusters=2, separation=-1.0)


class TestGenerateSynthetic:
    def test_deterministic_for_fixed_seed(self):
        spec = SyntheticSpec(n=30, p=5, clusters=3, separation=4.0, seed=99)
        table_a, truth_a = generate_synthetic(spec)
        table_b, truth_b = generate_synthetic(spec)
        assert np.array_equal(table_a.values, table_b.values)
        assert truth_a.assignment == truth_b.assignment
        assert table_a.region_labels == table_b.region_labels

    def test_seed_changes_data(self):
        base = SyntheticSpec(n=30, p=5, clusters=3, separation=4.0, seed=1)
        other = SyntheticSpec(n=30, p=5, clusters=3, separation=4.0, seed=2)
        assert not np.array_equal(
            generate_synthetic(base)[0].values, generate_synthetic(other)[0].values
        )

    def test_truth_covers_all_clusters(self):
        table, truth = generate_synthetic(SyntheticSpec(n=10, p=4, clusters=3, separation=2.0))
        assert truth.k == 3
        assert truth.n_items == 10
        assert table.n_regions == 10

    def test_extreme_separation_recovered_exactly(self):
        spec = SyntheticSpec(n=85, p=19, clusters=4, separation=10.0)
        table, truth = generate_synthetic(spec)
        part = recovered_partition(table, 4)
        assert adjusted_rand_index(part, truth) == 1.0

    def test_zero_separation_gives_no_signal(self):
        spec = SyntheticSpec(n=60, p=8, clusters=3, separation=0.0, seed=5)
        table, truth = generate_synthetic(spec)
        part = recovered_partition(table, 3)
        assert abs(adjusted_rand_index(part, truth)) < 0.3

    def test_overflowing_draw_raises_without_warning(self):
        # 1e308 standard normals overflow to +-inf, and centers at an
        # infinite distance add inf - inf = NaN cells
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^the synthetic draw overflows float64 "
                                                     r"at separation=6, within_sd=1e\+308$"):
                generate_synthetic(SyntheticSpec(within_sd=1e308))

    def test_single_cluster(self):
        table, truth = generate_synthetic(SyntheticSpec(n=8, p=3, clusters=1, separation=3.0))
        assert truth.k == 1
        assert table.n_regions == 8
