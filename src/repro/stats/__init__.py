"""Statistics substrate: ranking, correlation, proportions."""

from repro.stats.correlation import CorrelationResult, pearson, spearman
from repro.stats.proportions import (
    RelativeRiskResult,
    prevalence,
    relative_risk,
)
from repro.stats.ranking import rankdata

__all__ = [
    "CorrelationResult",
    "RelativeRiskResult",
    "pearson",
    "prevalence",
    "rankdata",
    "relative_risk",
    "spearman",
]
