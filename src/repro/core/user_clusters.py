"""K-Means user clustering and model selection (Fig. 7, §IV-C).

Users are clustered by their *full* attention distribution (rows of Û),
not just the argmax organ.  The paper chooses k = 12 after comparing
inertia, average cluster size, and silhouette coefficient across k, noting
k must be at least the number of organs so each organ can own a cluster.

:func:`sweep_k` is the model-selection step: one in-process fit of the
full matrix per candidate k, in the order given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.kmeans import KMeans, KMeansResult
from repro.cluster.silhouette import silhouette_score
from repro.config import UserClusteringConfig
from repro.core.aggregation import ranked_profile
from repro.core.attention import AttentionMatrix
from repro.errors import ClusteringError
from repro.organs import N_ORGANS, Organ

#: Silhouette subsample cap; full silhouette is O(m²) and the paper-scale
#: matrix has ~72k rows.
_SILHOUETTE_SAMPLE = 4000


@dataclass(frozen=True, slots=True)
class UserClustering:
    """Fig. 7 artifacts for one k.

    Attributes:
        result: the winning K-Means fit.
        silhouette: mean silhouette (possibly subsampled).
        avg_cluster_size: mean cluster size in users.
    """

    result: KMeansResult
    silhouette: float
    avg_cluster_size: float

    @property
    def k(self) -> int:
        return self.result.k

    def cluster_profile(self, cluster: int) -> list[tuple[Organ, float]]:
        """Ranked organ profile of one cluster center (a Fig. 7 panel)."""
        if not 0 <= cluster < self.k:
            raise ClusteringError(
                f"cluster must be in [0, {self.k}), got {cluster}"
            )
        return ranked_profile(self.result.centers[cluster])

    def relative_sizes(self) -> np.ndarray:
        """(k,) fraction of users per cluster (Fig. 7's relative sizes)."""
        sizes = self.result.cluster_sizes().astype(float)
        return sizes / sizes.sum()

    def n_focus_organs(self, cluster: int, threshold: float = 0.15) -> int:
        """How many organs a cluster meaningfully focuses on.

        Fig. 7's qualitative read: single-, dual-, and triple-organ
        clusters, plus broad clusters mentioning "virtually all organs".
        """
        center = self.result.centers[cluster]
        return int(np.count_nonzero(center >= threshold))


@dataclass(frozen=True, slots=True)
class KSelectionSweep:
    """Model-selection evidence across a range of k.

    Attributes:
        ks: the k values evaluated.
        inertias: winning inertia per k (monotone non-increasing in k, up
            to restart noise).
        silhouettes: mean silhouette per k.
        avg_sizes: average cluster size per k.
    """

    ks: tuple[int, ...]
    inertias: tuple[float, ...]
    silhouettes: tuple[float, ...]
    avg_sizes: tuple[float, ...]

    def best_k_by_silhouette(self) -> int:
        return self.ks[int(np.argmax(self.silhouettes))]


def cluster_users(
    attention: AttentionMatrix, config: UserClusteringConfig | None = None
) -> UserClustering:
    """Run the Fig. 7 user clustering."""
    config = config or UserClusteringConfig()
    result = KMeans(
        k=config.k,
        n_init=config.n_init,
        max_iter=config.max_iter,
        tol=config.tol,
        seed=config.seed,
    ).fit(attention.normalized)
    score = silhouette_score(
        attention.normalized,
        result.labels,
        sample_size=_SILHOUETTE_SAMPLE,
        seed=config.seed,
    )
    return UserClustering(
        result=result,
        silhouette=score,
        avg_cluster_size=attention.n_users / config.k,
    )


def sweep_k(
    attention: AttentionMatrix,
    ks: tuple[int, ...] = tuple(range(N_ORGANS, 21)),
    config: UserClusteringConfig | None = None,
) -> KSelectionSweep:
    """Evaluate K-Means across candidate k (the paper's selection step).

    Each candidate k is one independent fit of the full matrix, evaluated
    in the order given; the sweep is deterministic per config seed.
    """
    base = config or UserClusteringConfig()
    evaluations = [_evaluate_one_k(attention, k, base) for k in ks]
    inertias, silhouettes, avg_sizes = (
        zip(*evaluations) if evaluations else ((), (), ())
    )
    return KSelectionSweep(
        ks=tuple(ks),
        inertias=tuple(inertias),
        silhouettes=tuple(silhouettes),
        avg_sizes=tuple(avg_sizes),
    )


def _evaluate_one_k(
    attention: AttentionMatrix, k: int, base: UserClusteringConfig
) -> tuple[float, float, float]:
    """One sweep point: (inertia, silhouette, avg size) for one k."""
    clustering = cluster_users(
        attention,
        UserClusteringConfig(
            k=k,
            n_init=base.n_init,
            max_iter=base.max_iter,
            tol=base.tol,
            seed=base.seed,
        ),
    )
    return (
        clustering.result.inertia,
        clustering.silhouette,
        clustering.avg_cluster_size,
    )
