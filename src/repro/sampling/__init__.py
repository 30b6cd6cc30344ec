"""Structural sampling methods for bipartite graphs (paper §IV-A)."""

from .base import (
    SamplePlan,
    Sampler,
    check_ratio,
    compact_indices,
    materialize_plan,
    plan_edge_ids,
    resolve_rng,
)
from .one_side import OneSideNodeSampler, Side, recommend_side
from .random_edge import RandomEdgeSampler
from .registry import PAPER_FIG5_NAMES, available_samplers, make_sampler
from .stable import StableEdgeSampler
from .theory import (
    epsilon_approximation_holds,
    expected_sampled_degree_counts_es,
    expected_sampled_degree_counts_ns,
    lemma1_crossover_degree,
    theorem1_edge_probability,
)
from .two_side import TwoSideNodeSampler

__all__ = [
    "Sampler",
    "SamplePlan",
    "check_ratio",
    "compact_indices",
    "materialize_plan",
    "plan_edge_ids",
    "resolve_rng",
    "RandomEdgeSampler",
    "StableEdgeSampler",
    "OneSideNodeSampler",
    "TwoSideNodeSampler",
    "Side",
    "recommend_side",
    "make_sampler",
    "available_samplers",
    "PAPER_FIG5_NAMES",
    "expected_sampled_degree_counts_ns",
    "expected_sampled_degree_counts_es",
    "lemma1_crossover_degree",
    "theorem1_edge_probability",
    "epsilon_approximation_holds",
]
