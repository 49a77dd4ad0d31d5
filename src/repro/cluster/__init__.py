"""Clustering substrate: K-Means, agglomerative clustering, silhouette.

The paper uses scikit-learn (its ref [33]); sklearn is unavailable here,
so these are from-scratch NumPy implementations with the same semantics
the paper relies on: K-Means with k-means++ initialization and inertia,
agglomerative clustering over a precomputed affinity (Bhattacharyya
distance, the paper's choice for discrete distributions), and the
silhouette coefficient.  The k = 12 model selection itself is the k
sweep in :func:`repro.core.user_clusters.sweep_k`.
"""

from repro.cluster.agglomerative import AgglomerativeClustering, Dendrogram, MergeStep
from repro.cluster.distances import (
    bhattacharyya_distance,
    euclidean_distance,
    hellinger_distance,
    pairwise_distances,
)
from repro.cluster.kmeans import KMeans, KMeansResult
from repro.cluster.silhouette import silhouette_samples, silhouette_score

__all__ = [
    "AgglomerativeClustering",
    "Dendrogram",
    "KMeans",
    "KMeansResult",
    "MergeStep",
    "bhattacharyya_distance",
    "euclidean_distance",
    "hellinger_distance",
    "pairwise_distances",
    "silhouette_samples",
    "silhouette_score",
]
