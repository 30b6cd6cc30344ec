"""Sampler interface shared by all bipartite-graph sampling methods.

The paper (§IV-A) decomposes the large detection problem into ``N`` sampled
subgraphs drawn at ratio ``S``. Since the zero-copy fan-out refactor every
sampler is split into two halves:

* :meth:`Sampler.plan` — the cheap, RNG-consuming parent-side step. It
  looks only at the graph's *sizes* and returns a compact
  :class:`SamplePlan` (an edge-index array, a node pick, or a stripe row —
  typically ~1% the bytes of the subgraph it describes).
* :func:`materialize_plan` — the deterministic worker-side step that turns
  ``(parent graph, plan)`` into the sampled :class:`BipartiteGraph`,
  in process workers against a zero-copy :class:`~repro.graph.GraphStore`
  view mapped from the parent's store file.

``sampler.sample(graph, rng)`` is literally
``materialize_plan(graph, sampler.plan(graph, rng))``, and ``plan_many``
consumes the RNG in the same sequential order the historical eager
``sample_many`` did, so plan-based pipelines are bitwise identical to the
eager ones (enforced by ``tests/ensemble/test_plan_parity.py``).

Materialized subgraphs keep ``user_labels`` / ``merchant_labels`` that
reference the parent graph, so ensemble votes can be tallied per original
node.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..errors import SamplingError
from ..graph import BipartiteGraph
from ..graph.window import EdgeWindow

__all__ = [
    "SamplePlan",
    "Sampler",
    "check_ratio",
    "compact_indices",
    "materialize_plan",
    "plan_edge_ids",
    "resolve_rng",
]


def check_ratio(ratio: float) -> float:
    """Validate a sample ratio ``S ∈ (0, 1]``."""
    ratio = float(ratio)
    if not 0.0 < ratio <= 1.0:
        raise SamplingError(f"sample ratio must be in (0, 1], got {ratio}")
    return ratio


def compact_indices(indices: np.ndarray, bound: int) -> np.ndarray:
    """Narrow an index array to int32 when every value fits.

    Plans ship across process boundaries; halving the index width halves
    the dominant payload of edge-index plans. Materialization converts
    back to int64, so the resulting subgraphs are bitwise unchanged.
    """
    if bound <= np.iinfo(np.int32).max:
        return indices.astype(np.int32)
    return indices


def resolve_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Accept a Generator, an integer seed, or ``None`` (fresh entropy).

    ``bool`` is rejected explicitly: it *is* an ``int`` subclass, so
    ``resolve_rng(True)`` would silently mean seed 1 — almost certainly a
    misplaced flag argument rather than an intentional seed.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (bool, np.bool_)):
        raise SamplingError(
            f"seed must be an int, Generator or None, got bool {rng!r} "
            "(a misplaced flag argument?)"
        )
    return np.random.default_rng(rng)


@dataclass(frozen=True)
class SamplePlan:
    """Compact, picklable description of one sampled subgraph.

    A plan records *what the RNG chose*, not the subgraph itself, so the
    parent can fan ``N`` of them out to workers without shipping any graph
    bytes. Exactly one of three kinds:

    * ``"edges"`` — keep ``edge_indices`` of the parent (RES, and the
      empty-sample degenerate case of the node samplers),
    * ``"nodes"`` — keep the edges induced by ``users`` and/or
      ``merchants`` (ONS samples one side, TNS both),
    * ``"stripes"`` — keep the edges of the stripes flagged in
      ``stripe_row`` (:class:`~repro.sampling.StableEdgeSampler`; the row
      is |E|/stripe bits, independent of the delta history).

    ``weight_scale`` optionally rescales the surviving edges' weights
    (Theorem 1's ``1/S`` Horvitz–Thompson correction).
    """

    kind: str
    edge_indices: np.ndarray | None = None
    users: np.ndarray | None = None
    merchants: np.ndarray | None = None
    weight_scale: float | None = None
    stripe_row: np.ndarray | None = None
    stripe: int = 1

    KINDS = ("edges", "nodes", "stripes")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise SamplingError(f"plan kind must be one of {self.KINDS}, got {self.kind!r}")

    @property
    def nbytes(self) -> int:
        """Payload bytes this plan ships to a worker (diagnostics)."""
        total = 0
        for array in (self.edge_indices, self.users, self.merchants, self.stripe_row):
            if array is not None:
                total += array.nbytes
        return total


def _node_mask(nodes: np.ndarray | None, size: int) -> np.ndarray:
    """Boolean pick over one side; ``None`` picks the whole side."""
    if nodes is None:
        return np.ones(size, dtype=bool)
    mask = np.zeros(size, dtype=bool)
    mask[nodes] = True
    return mask


def plan_edge_ids(
    graph: BipartiteGraph, plan: SamplePlan, window: EdgeWindow | None = None
) -> np.ndarray:
    """The parent edge ids ``plan`` keeps, in the member's edge order.

    The one rule every consumer shares — :func:`materialize_plan`, the
    batched kernel and the stripe shards.

    * ``"edges"`` — ``edge_indices`` as drawn (plan order);
    * ``"nodes"`` — every edge whose two endpoints were sampled, ascending;
    * ``"stripes"`` — every edge of a flagged stripe, ascending.

    With a ``window``, ``graph`` is the full *stored* graph of a rolling
    window (tombstoned rows included): stripe membership is looked up by
    each row's original append id — so expiring or compacting *other*
    edges never moves a surviving edge between samples — and dead rows are
    masked out. Only stripe plans support windows; the positional kinds
    ("edges", "nodes") have no id-stable meaning over a mutating log and
    raise :class:`SamplingError`.

    Order matters: a member's edge order defines its adjacency and with it
    the peel's tie-breaking.
    """
    if window is not None:
        if plan.kind != "stripes":
            raise SamplingError(
                f"windowed materialization requires stripe plans, got {plan.kind!r}"
            )
        ids = window.edge_ids if plan.stripe == 1 else window.edge_ids // plan.stripe
        return np.nonzero(plan.stripe_row[ids] & window.alive)[0]
    if plan.kind == "edges":
        return np.asarray(plan.edge_indices, dtype=np.int64)
    if plan.kind == "stripes":
        row = plan.stripe_row
        mask = row if plan.stripe == 1 else np.repeat(row, plan.stripe)
        return np.nonzero(mask[: graph.n_edges])[0]
    users = _node_mask(plan.users, graph.n_users)
    merchants = _node_mask(plan.merchants, graph.n_merchants)
    return np.nonzero(users[graph.edge_users] & merchants[graph.edge_merchants])[0]


def materialize_plan(
    graph: BipartiteGraph, plan: SamplePlan, window: EdgeWindow | None = None
) -> BipartiteGraph:
    """Deterministically expand ``plan`` against its parent ``graph``.

    This is the worker-side half of sampling: no RNG, pure array work, and
    byte-for-byte the subgraph the eager ``sampler.sample`` call would have
    produced — the edges :func:`plan_edge_ids` keeps, with the nodes they
    touch. ``graph`` may be a read-only view of a mapped store file; see
    :func:`plan_edge_ids` for the ``window`` overlay.
    """
    subgraph = graph.edge_subgraph(plan_edge_ids(graph, plan, window))
    if plan.weight_scale is not None:
        subgraph = subgraph.with_weights(
            subgraph.weights_or_ones() * plan.weight_scale, trusted=True
        )
    return subgraph


class Sampler(ABC):
    """A structural sampling method for bipartite graphs."""

    #: short identifier used in experiment tables ("res", "ons_user", ...)
    name: str = "sampler"

    def __init__(self, ratio: float) -> None:
        self.ratio = check_ratio(ratio)

    @abstractmethod
    def plan(
        self, graph: BipartiteGraph, rng: np.random.Generator | int | None = None
    ) -> SamplePlan:
        """Draw the compact plan of one sampled subgraph (parent-side)."""

    def sample(
        self, graph: BipartiteGraph, rng: np.random.Generator | int | None = None
    ) -> BipartiteGraph:
        """Draw one sampled subgraph of ``graph`` (plan + materialize)."""
        return materialize_plan(graph, self.plan(graph, rng))

    def plan_many(
        self,
        graph: BipartiteGraph,
        n_samples: int,
        rng: np.random.Generator | int | None = None,
    ) -> list[SamplePlan]:
        """Plans for ``n_samples`` independent subgraphs (the paper's ``N``).

        Draws from one resolved generator sequentially — the same RNG
        consumption order as materializing each sample eagerly in turn.
        """
        if n_samples < 1:
            raise SamplingError(f"n_samples must be >= 1, got {n_samples}")
        generator = resolve_rng(rng)
        return [self.plan(graph, generator) for _ in range(n_samples)]

    def sample_many(
        self,
        graph: BipartiteGraph,
        n_samples: int,
        rng: np.random.Generator | int | None = None,
    ) -> list[BipartiteGraph]:
        """Draw ``n_samples`` independent subgraphs, materialized eagerly."""
        return [
            materialize_plan(graph, plan)
            for plan in self.plan_many(graph, n_samples, rng)
        ]

    def repetition_rate(self, n_samples: int) -> float:
        """``R = S × N`` — expected number of times an element is resampled."""
        return self.ratio * n_samples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(ratio={self.ratio})"
