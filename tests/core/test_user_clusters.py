"""Tests for the K-Means user clustering (Fig. 7)."""

import numpy as np
import pytest

from repro.config import UserClusteringConfig
from repro.core.attention import build_attention_matrix
from repro.core.user_clusters import cluster_users, sweep_k
from repro.errors import ClusteringError, ConfigError
from repro.organs import N_ORGANS


@pytest.fixture(scope="module")
def attention(corpus):
    return build_attention_matrix(corpus)


@pytest.fixture(scope="module")
def clustering(attention):
    return cluster_users(attention, UserClusteringConfig(k=12, n_init=4, seed=0))


class TestClusterUsers:
    def test_paper_k(self, clustering):
        assert clustering.k == 12

    def test_labels_cover_users(self, attention, clustering):
        assert clustering.result.labels.shape == (attention.n_users,)

    def test_high_silhouette(self, clustering):
        """Most users are one-hot rows, so clusters are tight — the paper
        reports silhouette 0.953."""
        assert clustering.silhouette > 0.8

    def test_avg_cluster_size(self, attention, clustering):
        assert clustering.avg_cluster_size == pytest.approx(
            attention.n_users / 12
        )

    def test_cluster_profiles_ranked(self, clustering):
        profile = clustering.cluster_profile(0)
        values = [value for __, value in profile]
        assert values == sorted(values, reverse=True)

    def test_relative_sizes_sum_to_one(self, clustering):
        assert clustering.relative_sizes().sum() == pytest.approx(1.0)

    def test_single_focus_clusters_exist(self, clustering):
        """Fig. 7 identifies clusters focused on a single organ."""
        focus_counts = [
            clustering.n_focus_organs(cluster) for cluster in range(12)
        ]
        assert 1 in focus_counts

    def test_six_organ_corners_covered(self, attention, clustering):
        """With k ≥ 6, every organ should own at least one cluster whose
        center is dominated by it (the paper's rationale for k ≥ n)."""
        dominant = {
            int(np.argmax(clustering.result.centers[cluster]))
            for cluster in range(12)
        }
        assert dominant == set(range(N_ORGANS))

    def test_k_below_organ_count_rejected(self):
        with pytest.raises(ConfigError, match="one cluster per organ"):
            UserClusteringConfig(k=N_ORGANS - 1)

    def test_bad_cluster_index_rejected(self, clustering):
        with pytest.raises(ClusteringError):
            clustering.cluster_profile(99)

    def test_deterministic(self, attention):
        config = UserClusteringConfig(k=8, n_init=2, seed=5)
        a = cluster_users(attention, config)
        b = cluster_users(attention, config)
        assert np.array_equal(a.result.labels, b.result.labels)


class TestSweepK:
    def test_sweep_fields_aligned(self, attention):
        sweep = sweep_k(attention, ks=(6, 8, 10))
        assert sweep.ks == (6, 8, 10)
        assert len(sweep.inertias) == 3
        assert len(sweep.silhouettes) == 3

    def test_inertia_decreases(self, attention):
        sweep = sweep_k(
            attention, ks=(6, 12, 18),
            config=UserClusteringConfig(n_init=4),
        )
        assert sweep.inertias[0] >= sweep.inertias[1] >= sweep.inertias[2]

    def test_best_k_by_silhouette(self, attention):
        sweep = sweep_k(attention, ks=(6, 12))
        assert sweep.best_k_by_silhouette() in (6, 12)
