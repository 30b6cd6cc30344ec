"""FDET — k-disjoint dense-block extraction (paper Algorithm 1).

The natural heuristic for the disjoint objective of Equ. 1: repeatedly

1. peel the current graph greedily and take the densest prefix (a block),
2. record the block's node labels and density,
3. remove the block's *edges* (nodes stay, so later blocks may reuse nodes
   that still have edges elsewhere — the returned blocks are edge-disjoint,
   and the density objective sums over them),

until the graph runs out of edges or ``max_blocks`` is reached, then apply a
truncating-point rule (Definition 3) to keep only the ``k̂`` meaningful
blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DetectionError, EmptyGraphError
from ..graph import BipartiteGraph
from ..sampling import SamplePlan
from .density import DensityMetric, LogWeightedDensity
from .peeling import PeelEngine, _build_priors, _reference_peel, greedy_peel
from .truncation import SecondDifferenceRule, TruncationRule

__all__ = ["Block", "FdetConfig", "FdetResult", "Fdet", "WeightPolicy"]


class WeightPolicy:
    """How the log-weights react to edge removal across FDET iterations.

    * ``REFRESH`` — recompute ``1/log(d_j + c)`` on the residual graph before
      every block (degrees shrink as blocks are carved out).
    * ``FROZEN`` — compute merchant degrees once on the input graph and keep
      the edge weights fixed (Fraudar's global-weights convention).

    The choice is ablated in ``benchmarks/bench_ablation_weights.py``.
    """

    REFRESH = "refresh"
    FROZEN = "frozen"
    ALL = (REFRESH, FROZEN)


def _residual_view(graph: BipartiteGraph, edge_alive: np.ndarray) -> BipartiteGraph:
    """The graph restricted to alive edges (node set and labels kept).

    Uses the trusted constructor: the arrays are masked views of an already
    validated graph, so the O(|E|) validation scan is skipped.
    """
    weights = graph.edge_weights[edge_alive] if graph.edge_weights is not None else None
    return BipartiteGraph._from_trusted(
        n_users=graph.n_users,
        n_merchants=graph.n_merchants,
        edge_users=graph.edge_users[edge_alive],
        edge_merchants=graph.edge_merchants[edge_alive],
        edge_weights=weights,
        user_labels=graph.user_labels,
        merchant_labels=graph.merchant_labels,
    )


@dataclass(frozen=True)
class Block:
    """One detected dense block ``G(S_i)``."""

    index: int
    user_labels: np.ndarray
    merchant_labels: np.ndarray
    density: float
    n_edges: int

    @property
    def n_users(self) -> int:
        """Users in the block."""
        return int(self.user_labels.size)

    @property
    def n_merchants(self) -> int:
        """Merchants in the block."""
        return int(self.merchant_labels.size)

    @property
    def n_nodes(self) -> int:
        """Total block size ``|S_i|``."""
        return self.n_users + self.n_merchants


@dataclass(frozen=True)
class FdetConfig:
    """Configuration of the FDET detector.

    Attributes
    ----------
    metric:
        Density metric; defaults to the paper's ``φ`` (log-weighted, c=5).
    max_blocks:
        Upper bound on blocks extracted before truncation. The paper
        observes ``k̂`` in the "few to few tens" range; 30 (the Fraudar
        fixed-K used in Table III) is a safe ceiling.
    truncation:
        Truncating-point rule (Definition 3 by default).
    weight_policy:
        See :class:`WeightPolicy`.
    min_block_edges:
        Extraction stops when the best block has fewer edges than this.
    min_density_ratio:
        Early-stop: halt once a block's density falls below this fraction of
        the first block's density (0 disables; truncation normally discards
        such blocks anyway — this merely saves work).
    engine:
        Peeling backend, one of :class:`repro.fdet.PeelEngine`
        (``"reference"`` or ``"fast"``; default ``"fast"``). Both produce
        identical detections; under ``fast``, ``detect`` runs the whole
        block loop in the batched native kernel.
    """

    metric: DensityMetric = field(default_factory=LogWeightedDensity)
    max_blocks: int = 30
    truncation: TruncationRule = field(default_factory=SecondDifferenceRule)
    weight_policy: str = WeightPolicy.REFRESH
    min_block_edges: int = 1
    min_density_ratio: float = 0.0
    engine: str = PeelEngine.DEFAULT

    def __post_init__(self) -> None:
        if self.max_blocks < 1:
            raise DetectionError(f"max_blocks must be >= 1, got {self.max_blocks}")
        if self.weight_policy not in WeightPolicy.ALL:
            raise DetectionError(
                f"weight_policy must be one of {WeightPolicy.ALL}, got {self.weight_policy!r}"
            )
        if self.engine not in PeelEngine.ALL:
            raise DetectionError(
                f"engine must be one of {PeelEngine.ALL}, got {self.engine!r}"
            )
        if self.min_block_edges < 1:
            raise DetectionError(f"min_block_edges must be >= 1, got {self.min_block_edges}")
        if not 0.0 <= self.min_density_ratio < 1.0:
            raise DetectionError(
                f"min_density_ratio must be in [0, 1), got {self.min_density_ratio}"
            )


@dataclass(frozen=True)
class FdetResult:
    """Everything FDET found on one graph.

    ``blocks`` holds the ``k̂`` truncated blocks; ``all_blocks`` every block
    extracted before truncation (needed by fixed-k comparisons and the Fig.-1
    score plot).
    """

    all_blocks: tuple[Block, ...]
    k_hat: int

    @property
    def blocks(self) -> tuple[Block, ...]:
        """The ``k̂`` blocks retained by the truncating point."""
        return self.all_blocks[: self.k_hat]

    @property
    def densities(self) -> np.ndarray:
        """Density of every extracted block, in extraction order."""
        return np.array([b.density for b in self.all_blocks], dtype=np.float64)

    def detected_users(self, k: int | None = None) -> np.ndarray:
        """Union of user labels over the first ``k`` blocks (default ``k̂``)."""
        return self._union("user_labels", k)

    def detected_merchants(self, k: int | None = None) -> np.ndarray:
        """Union of merchant labels over the first ``k`` blocks (default ``k̂``)."""
        return self._union("merchant_labels", k)

    def _union(self, attribute: str, k: int | None) -> np.ndarray:
        limit = self.k_hat if k is None else min(k, len(self.all_blocks))
        parts = [getattr(block, attribute) for block in self.all_blocks[:limit]]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))

    def total_density(self, k: int | None = None) -> float:
        """The objective of Equ. 1: ``Σ_i φ(G(S_i))`` over kept blocks."""
        limit = self.k_hat if k is None else min(k, len(self.all_blocks))
        return float(sum(block.density for block in self.all_blocks[:limit]))


class Fdet:
    """The FDET detector (paper Algorithm 1 + Definition 3 truncation).

    >>> from repro.graph import BipartiteGraph
    >>> graph = BipartiteGraph.from_edges([(u, v) for u in range(5) for v in range(5)])
    >>> result = Fdet().detect(graph)
    >>> result.blocks[0].n_users
    5
    """

    def __init__(self, config: FdetConfig | None = None) -> None:
        self.config = config or FdetConfig()

    def detect(self, graph: BipartiteGraph) -> FdetResult:
        """Extract dense blocks from ``graph`` and truncate at ``k̂``.

        Under the ``fast`` engine, a config the batched kernel replicates
        (:func:`repro.fdet.batched.config_eligible`) runs ``graph`` as one
        all-edges member of :func:`repro.fdet.batched.detect_many` that
        keeps every node, isolated ones included. Other configs, the
        ``reference`` engine and hosts without a loaded kernel run the
        reference loop. Detections are identical either way.

        The reference loop is *zero-rebuild*: instead of materialising a
        fresh graph (O(|E|) validation plus an O(|E| log |E|) adjacency
        re-sort) after every block, it keeps one edge-alive mask over the
        input graph and recomputes only the degree-dependent weights on the
        masked residual. Detections are identical to the rebuild-per-block
        formulation under both weight policies.

        ``graph`` is accepted as a **trusted view**: detection never
        re-validates and never writes into the graph's arrays, so graphs
        materialized worker-side from a :class:`~repro.graph.GraphStore`
        (whose columns are read-only shared-memory views) run unchanged —
        every derived quantity (priorities, masks, residual views) is
        allocated fresh. Enforced by the shm parity tests.
        """
        from . import batched  # deferred: batched builds on this module

        config = self.config
        if batched.config_eligible(config):
            everything = SamplePlan(kind="edges", edge_indices=np.arange(graph.n_edges))
            native = batched.detect_many(graph, [everything], config, keep_nodes=True)
            if native is not None and native[0] is not None:
                return native[0].result
        return self._detect_reference(graph)

    def _detect_reference(self, graph: BipartiteGraph) -> FdetResult:
        """Algorithm 1 on the reference peel, one edge-alive mask for all blocks."""
        config = self.config
        metric = config.metric
        frozen_degrees: np.ndarray | None = None
        if config.weight_policy == WeightPolicy.FROZEN:
            frozen_degrees = graph.merchant_degrees()

        n_edges = graph.n_edges
        edge_users = graph.edge_users
        edge_merchants = graph.edge_merchants
        alive = np.ones(n_edges, dtype=bool)
        n_alive = n_edges

        blocks: list[Block] = []
        first_density: float | None = None
        for index in range(config.max_blocks):
            if n_alive == 0:
                break
            residual = graph if n_alive == n_edges else _residual_view(graph, alive)
            edge_weights = metric.edge_weights(residual, frozen_degrees)
            priors = _build_priors(
                graph.n_users,
                graph.n_merchants,
                metric.user_weights(residual),
                metric.merchant_weights(residual),
            )
            peel = _reference_peel(residual, edge_weights, priors)
            block_mask = alive & peel.user_mask[edge_users] & peel.merchant_mask[edge_merchants]
            block_edges = np.nonzero(block_mask)[0]
            if block_edges.size < config.min_block_edges:
                break
            blocks.append(
                Block(
                    index=index,
                    user_labels=np.sort(graph.user_labels[peel.user_mask]),
                    merchant_labels=np.sort(graph.merchant_labels[peel.merchant_mask]),
                    density=peel.density,
                    n_edges=int(block_edges.size),
                )
            )
            if first_density is None:
                first_density = peel.density
            elif (
                config.min_density_ratio > 0.0
                and peel.density < config.min_density_ratio * first_density
            ):
                break
            alive[block_edges] = False
            n_alive -= int(block_edges.size)

        k_hat = config.truncation.truncate([block.density for block in blocks])
        return FdetResult(all_blocks=tuple(blocks), k_hat=k_hat)

    def densest_block(self, graph: BipartiteGraph) -> Block:
        """Just the single densest block (no iteration, no truncation)."""
        if graph.is_empty:
            raise EmptyGraphError("cannot extract a block from an edgeless graph")
        edge_weights = self.config.metric.edge_weights(graph)
        peel = greedy_peel(
            graph,
            edge_weights,
            user_weights=self.config.metric.user_weights(graph),
            merchant_weights=self.config.metric.merchant_weights(graph),
            engine=self.config.engine,
        )
        block_edges = peel.edge_indices(graph)
        return Block(
            index=0,
            user_labels=np.sort(graph.user_labels[peel.user_mask]),
            merchant_labels=np.sort(graph.merchant_labels[peel.merchant_mask]),
            density=peel.density,
            n_edges=int(block_edges.size),
        )
