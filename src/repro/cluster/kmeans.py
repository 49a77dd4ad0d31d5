"""K-Means clustering (k-means++ initialization, Lloyd iterations).

From-scratch replacement for ``sklearn.cluster.KMeans`` with the pieces
the paper's §IV-C model selection needs: inertia, multiple restarts, and
deterministic seeding.  Fully vectorized; comfortably handles the paper's
~72k × 6 user matrix.

Restarts run in-process, in order: restart *i* draws from the i-th RNG
stream spawned from the model seed, and the lowest-inertia fit wins, ties
breaking toward the lowest restart index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ClusteringError


@dataclass(frozen=True, slots=True)
class KMeansResult:
    """Outcome of one K-Means fit.

    Attributes:
        labels: (m,) cluster index per row.
        centers: (k, n) final cluster centers.
        inertia: sum of squared distances of rows to their centers.
        n_iter: Lloyd iterations executed in the winning restart.
        converged: whether the winning restart met the tolerance.
    """

    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    n_iter: int
    converged: bool

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    def cluster_sizes(self) -> np.ndarray:
        """(k,) number of rows in each cluster."""
        return np.bincount(self.labels, minlength=self.k)


class KMeans:
    """K-Means with k-means++ seeding and restarts.

    Args:
        k: number of clusters.
        n_init: independent restarts; the lowest-inertia fit wins.
        max_iter: Lloyd iteration cap per restart.
        tol: convergence threshold on squared center movement.
        seed: RNG seed; every restart draws from its own stream spawned
            from this seed.

    Raises:
        ClusteringError: on invalid parameters or k > number of rows.
    """

    def __init__(
        self,
        k: int,
        n_init: int = 8,
        max_iter: int = 200,
        tol: float = 1e-6,
        seed: int = 0,
    ):
        if k < 1:
            raise ClusteringError(f"k must be >= 1, got {k}")
        if n_init < 1:
            raise ClusteringError(f"n_init must be >= 1, got {n_init}")
        if max_iter < 1:
            raise ClusteringError(f"max_iter must be >= 1, got {max_iter}")
        self.k = k
        self.n_init = n_init
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed

    def fit(self, rows: np.ndarray) -> KMeansResult:
        """Cluster the rows of a (m, n) matrix."""
        matrix = np.asarray(rows, dtype=float)
        if matrix.ndim != 2:
            raise ClusteringError(f"expected 2-D input, got shape {matrix.shape}")
        m = matrix.shape[0]
        if self.k > m:
            raise ClusteringError(f"k={self.k} exceeds number of rows {m}")
        streams = np.random.SeedSequence(self.seed).spawn(self.n_init)
        best = self._fit_once(matrix, np.random.default_rng(streams[0]))
        for stream in streams[1:]:
            result = self._fit_once(matrix, np.random.default_rng(stream))
            # Strict ``<``: an inertia tie keeps the lowest restart index.
            if result.inertia < best.inertia:
                best = result
        return best

    def _fit_once(self, matrix: np.ndarray, rng: np.random.Generator) -> KMeansResult:
        centers = self._init_centers(matrix, rng)
        labels = np.zeros(matrix.shape[0], dtype=np.int64)
        converged = False
        iteration = 0
        for iteration in range(1, self.max_iter + 1):
            distances = _squared_distances(matrix, centers)
            labels = np.argmin(distances, axis=1)
            new_centers = centers.copy()
            empty: list[int] = []
            for cluster in range(self.k):
                members = matrix[labels == cluster]
                if members.shape[0] > 0:
                    new_centers[cluster] = members.mean(axis=0)
                else:
                    empty.append(cluster)
            if empty:
                # Re-seed empty clusters at the worst-fit rows, the
                # standard remedy that keeps exactly k clusters alive —
                # one *distinct* row per empty cluster, otherwise two
                # clusters emptied in the same iteration would collapse
                # onto the same center and never separate again.
                worst_first = np.argsort(np.min(distances, axis=1))[::-1]
                for cluster, row in zip(empty, worst_first):
                    new_centers[cluster] = matrix[row]
            shift = float(np.sum((new_centers - centers) ** 2))
            centers = new_centers
            if shift <= self.tol:
                converged = True
                break
        distances = _squared_distances(matrix, centers)
        labels = np.argmin(distances, axis=1)
        inertia = float(distances[np.arange(matrix.shape[0]), labels].sum())
        return KMeansResult(
            labels=labels,
            centers=centers,
            inertia=inertia,
            n_iter=iteration,
            converged=converged,
        )

    def _init_centers(self, matrix: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """k-means++ seeding (Arthur & Vassilvitskii 2007)."""
        m = matrix.shape[0]
        centers = np.empty((self.k, matrix.shape[1]))
        first = int(rng.integers(m))
        centers[0] = matrix[first]
        closest_sq = _squared_distances(matrix, centers[:1]).ravel()
        for index in range(1, self.k):
            total = float(closest_sq.sum())
            if total <= 0.0:
                # All remaining rows coincide with chosen centers.
                choice = int(rng.integers(m))
            else:
                choice = int(rng.choice(m, p=closest_sq / total))
            centers[index] = matrix[choice]
            new_sq = _squared_distances(matrix, centers[index : index + 1]).ravel()
            closest_sq = np.minimum(closest_sq, new_sq)
        return centers


def _squared_distances(matrix: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(m, k) squared Euclidean distances from rows to centers."""
    row_norms = np.einsum("ij,ij->i", matrix, matrix)[:, None]
    center_norms = np.einsum("ij,ij->i", centers, centers)[None, :]
    squared = row_norms + center_norms - 2.0 * (matrix @ centers.T)
    return np.clip(squared, 0.0, None)
