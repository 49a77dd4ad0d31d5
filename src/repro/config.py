"""Frozen configuration objects for collection and analysis.

All tunables are plain frozen dataclasses so experiment definitions are
hashable, comparable, and printable in provenance logs.  Validation happens
eagerly in ``__post_init__`` — a bad configuration fails at construction,
not deep inside a pipeline run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.nlp.keywords import CONTEXT_TERMS, SUBJECT_TERMS
from repro.organs import N_ORGANS


@dataclass(frozen=True, slots=True)
class CollectionConfig:
    """Configuration for the three-step collection pipeline (§III-A).

    Attributes:
        context_terms: organ-donation Context vocabulary (Fig. 1, rows).
        subject_terms: organ Subject vocabulary (Fig. 1, columns).
        prefer_geotag: resolve location from the tweet geo-tag before the
            profile string, as the paper does (GPS is more precise but
            ~1.4% coverage).
        min_confidence: geocoder confidence below which a location
            resolution is treated as unresolved.
    """

    context_terms: tuple[str, ...] = CONTEXT_TERMS
    subject_terms: tuple[str, ...] = SUBJECT_TERMS
    prefer_geotag: bool = True
    min_confidence: float = 0.5

    def __post_init__(self) -> None:
        if not self.context_terms:
            raise ConfigError("context_terms must not be empty")
        if not self.subject_terms:
            raise ConfigError("subject_terms must not be empty")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ConfigError(
                f"min_confidence must be in [0, 1], got {self.min_confidence}"
            )


@dataclass(frozen=True, slots=True)
class ResiliencePolicy:
    """Reconnect, dedup, and reorder policy for resilient collection.

    The backoff shape follows Twitter's documented Streaming API
    reconnect guidance: *linear* backoff for network-level errors
    (starting at 250 ms, capped at 16 s), *exponential* backoff for HTTP
    errors (starting at 5 s, doubling, capped at 320 s), and exponential
    backoff starting at a full minute for HTTP 420 rate limiting.  A
    deterministic seeded jitter decorrelates reconnect storms without
    breaking reproducibility.

    Attributes:
        network_backoff_step: linear increment per consecutive network
            failure, in (simulated) seconds.
        network_backoff_cap: ceiling for network backoff.
        http_backoff_initial: first exponential delay for HTTP errors.
        http_backoff_cap: ceiling for HTTP-error backoff.
        rate_limit_backoff_initial: first delay after an HTTP 420.
        rate_limit_backoff_cap: ceiling for rate-limit backoff.
        backoff_factor: exponential growth factor for HTTP/420 backoff.
        jitter: max extra delay as a fraction of the base delay, drawn
            deterministically from ``seed``; 0 disables jitter.
        stall_timeout_ticks: consecutive keep-alive frames after which
            the connection is declared stalled and torn down (the analog
            of Twitter's 90-second stall timeout).
        dedup_window: recent tweet ids remembered for suppressing
            backfill duplicates; must cover the deepest backfill overlap.
        reorder_window: size of the id-ordered reordering buffer; restores
            exact stream order whenever out-of-order displacement is
            bounded by it.
        seed: RNG seed for the jitter schedule.
    """

    network_backoff_step: float = 0.25
    network_backoff_cap: float = 16.0
    http_backoff_initial: float = 5.0
    http_backoff_cap: float = 320.0
    rate_limit_backoff_initial: float = 60.0
    rate_limit_backoff_cap: float = 960.0
    backoff_factor: float = 2.0
    jitter: float = 0.1
    stall_timeout_ticks: int = 6
    dedup_window: int = 4096
    reorder_window: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        positive = (
            "network_backoff_step",
            "network_backoff_cap",
            "http_backoff_initial",
            "http_backoff_cap",
            "rate_limit_backoff_initial",
            "rate_limit_backoff_cap",
        )
        for name in positive:
            if getattr(self, name) <= 0.0:
                raise ConfigError(
                    f"{name} must be > 0, got {getattr(self, name)}"
                )
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.stall_timeout_ticks < 1:
            raise ConfigError(
                "stall_timeout_ticks must be >= 1, got "
                f"{self.stall_timeout_ticks}"
            )
        if self.dedup_window < 1:
            raise ConfigError(
                f"dedup_window must be >= 1, got {self.dedup_window}"
            )
        if self.reorder_window < 1:
            raise ConfigError(
                f"reorder_window must be >= 1, got {self.reorder_window}"
            )


@dataclass(frozen=True, slots=True)
class RelativeRiskConfig:
    """Configuration for highlighted-organ detection (Eq. 4, §IV-B1).

    Attributes:
        alpha: significance level; the paper uses 0.05 (z = 1.96).
        min_users: states with fewer located users than this are reported
            as "insufficient data" rather than tested.
    """

    alpha: float = 0.05
    min_users: int = 20

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.min_users < 1:
            raise ConfigError(f"min_users must be >= 1, got {self.min_users}")


@dataclass(frozen=True, slots=True)
class UserClusteringConfig:
    """Configuration for the K-Means user characterization (§IV-C).

    Attributes:
        k: number of clusters; the paper selects 12, and k must be at
            least the number of organs so each organ can own a cluster.
        n_init: k-means++ restarts; the best inertia wins.
        max_iter: Lloyd iteration cap per restart.
        tol: relative center-shift convergence tolerance.
        seed: RNG seed for reproducible clustering.
    """

    k: int = 12
    n_init: int = 8
    max_iter: int = 200
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < N_ORGANS:
            # The paper's constraint: at least one cluster per organ.
            raise ConfigError(
                f"k must be >= {N_ORGANS} (one cluster per organ), got {self.k}"
            )
        if self.n_init < 1:
            raise ConfigError(f"n_init must be >= 1, got {self.n_init}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True, slots=True)
class StateClusteringConfig:
    """Configuration for the hierarchical state clustering (§IV-B2).

    Attributes:
        linkage: agglomerative linkage rule.
        affinity: distance between state attention distributions; the paper
            uses Bhattacharyya distance (Kailath 1967).
    """

    linkage: str = "average"
    affinity: str = "bhattacharyya"

    _LINKAGES = ("single", "complete", "average")
    _AFFINITIES = ("bhattacharyya", "hellinger", "euclidean")

    def __post_init__(self) -> None:
        if self.linkage not in self._LINKAGES:
            raise ConfigError(
                f"linkage must be one of {self._LINKAGES}, got {self.linkage!r}"
            )
        if self.affinity not in self._AFFINITIES:
            raise ConfigError(
                f"affinity must be one of {self._AFFINITIES}, got {self.affinity!r}"
            )


@dataclass(frozen=True, slots=True)
class AnalysisConfig:
    """Top-level analysis configuration bundling all §IV experiments."""

    relative_risk: RelativeRiskConfig = field(default_factory=RelativeRiskConfig)
    user_clustering: UserClusteringConfig = field(default_factory=UserClusteringConfig)
    state_clustering: StateClusteringConfig = field(
        default_factory=StateClusteringConfig
    )
