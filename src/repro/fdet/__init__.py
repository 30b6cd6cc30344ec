"""FDET: heuristic k-disjoint dense-block detection (paper §IV-B)."""

from .density import (
    AverageDegreeDensity,
    DensityMetric,
    LogWeightedDensity,
    PAPER_DENSITY,
    PriorWeightedDensity,
)
from .fdet import Block, Fdet, FdetConfig, FdetResult, WeightPolicy
from .peeling import PeelEngine, PeelResult, greedy_peel
from .truncation import (
    FirstDifferenceRule,
    FixedKRule,
    SecondDifferenceRule,
    TruncationRule,
    second_differences,
)

__all__ = [
    "DensityMetric",
    "LogWeightedDensity",
    "AverageDegreeDensity",
    "PriorWeightedDensity",
    "PAPER_DENSITY",
    "Block",
    "Fdet",
    "FdetConfig",
    "FdetResult",
    "WeightPolicy",
    "PeelEngine",
    "PeelResult",
    "greedy_peel",
    "TruncationRule",
    "SecondDifferenceRule",
    "FirstDifferenceRule",
    "FixedKRule",
    "second_differences",
]
