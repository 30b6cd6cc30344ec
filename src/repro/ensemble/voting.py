"""Vote aggregation (paper Definition 4: Majority Voting Aggregation).

Each of the ``N`` per-sample FDET runs nominates suspicious users and
merchants; :class:`VoteTable` tallies how often each node was nominated,
and the aggregators turn tallies into final detections:

* :func:`majority_vote` — the paper's MVA: accept when votes ≥ ``T``.
* :func:`normalized_majority_vote` — ablation variant that divides a node's
  votes by the number of samples the node actually *appeared in* (a node can
  only be nominated when sampling put it in the subgraph; this corrects the
  bias against rarely-sampled nodes, at the cost of amplifying noise from
  nodes seen once).

The table is dense: per side, int32 vote (and optionally appearance)
arrays indexed by node, with the node labels alongside — a fitted table
shares its graph's label array. Every tally is one ``np.bincount`` over
the members' node-index arrays (:func:`repro.fdet.batched.vote_counters`);
an incremental refresh subtracts and adds the refreshed members' arrays,
and new nodes only append, so the arrays just grow. The ``label -> count``
views (:attr:`VoteTable.user_votes` and friends) are built on demand and
list no zero counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import AggregationError
from ..fdet.batched import label_nodes, tally
from .results import DetectionResult

__all__ = ["NodeVotes", "VoteTable", "majority_vote", "normalized_majority_vote"]


def _flat(label_sets: Sequence[Iterable[int]]) -> np.ndarray:
    arrays = [np.asarray(labels, dtype=np.int64).reshape(-1) for labels in label_sets]
    return np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)


@dataclass(eq=False)
class NodeVotes:
    """One side of a :class:`VoteTable`: per node, its label, the int32
    number of members that detected it and (``None`` when untracked) the
    int32 number of members whose sample contained it."""

    labels: np.ndarray
    votes: np.ndarray
    seen: np.ndarray | None = None

    @classmethod
    def from_labels(cls, label_sets: Sequence[Iterable[int]]) -> "NodeVotes":
        """Tally label sets over the labels they name (sorted)."""
        labels, counts = np.unique(_flat(label_sets), return_counts=True)
        return cls(labels=labels, votes=counts.astype(np.int32))

    def mapping(self, counts: np.ndarray | None) -> Counter[int] | None:
        """``label -> count`` for every node with a non-zero count."""
        if counts is None:
            return None
        hit = np.flatnonzero(counts)
        return Counter(dict(zip(self.labels[hit].tolist(), counts[hit].tolist())))

    def accepted(self, keep: np.ndarray) -> np.ndarray:
        """Sorted labels of the nodes ``keep`` selects."""
        return np.sort(self.labels[keep]).astype(np.int64, copy=False)

    def scores(self, labels: np.ndarray) -> np.ndarray:
        """float64 votes of each of ``labels`` (0 for labels never voted)."""
        # a label this side lacks maps to node -1: the appended zero
        nodes = label_nodes(self.labels, [labels])[0]
        return np.append(self.votes, 0)[nodes].astype(np.float64)

    def grow(self, labels: np.ndarray) -> None:
        """Adopt ``labels``, which extends the current labels with new nodes."""
        pad = (0, labels.size - self.labels.size)
        self.labels = labels
        self.votes = np.pad(self.votes, pad)
        if self.seen is not None:
            self.seen = np.pad(self.seen, pad)

    def attach(self, label_sets: Sequence[Iterable[int]]) -> None:
        """Tally appearances from label sets, adding labels this side lacks."""
        flat = _flat(label_sets)
        nodes = label_nodes(self.labels, [flat])
        if (nodes[0] < 0).any():
            self.grow(np.concatenate([self.labels, np.unique(flat[nodes[0] < 0])]))
            nodes = label_nodes(self.labels, [flat])
        self.seen = tally(nodes, self.labels.size)


@dataclass(eq=False)
class VoteTable:
    """Per-node vote counts from ``N`` ensemble members.

    Attributes
    ----------
    n_samples:
        The ensemble size ``N`` (upper bound for any count).
    users, merchants:
        The dense :class:`NodeVotes` of each side.
    """

    n_samples: int
    users: NodeVotes
    merchants: NodeVotes

    @classmethod
    def from_detections(
        cls,
        user_label_sets: Sequence[Iterable[int]],
        merchant_label_sets: Sequence[Iterable[int]],
    ) -> "VoteTable":
        """Tally one detection (set of labels) per ensemble member."""
        if len(user_label_sets) != len(merchant_label_sets):
            raise AggregationError(
                "user and merchant detection lists must have the same length "
                f"({len(user_label_sets)} vs {len(merchant_label_sets)})"
            )
        return cls(
            n_samples=len(user_label_sets),
            users=NodeVotes.from_labels(user_label_sets),
            merchants=NodeVotes.from_labels(merchant_label_sets),
        )

    def attach_appearances(
        self,
        user_label_sets: Sequence[Iterable[int]],
        merchant_label_sets: Sequence[Iterable[int]],
    ) -> None:
        """Record which labels each sampled subgraph *contained*."""
        if len(user_label_sets) != self.n_samples or len(merchant_label_sets) != self.n_samples:
            raise AggregationError("appearance lists must match n_samples")
        self.users.attach(user_label_sets)
        self.merchants.attach(merchant_label_sets)

    @property
    def user_votes(self) -> Counter[int]:
        """``label -> number of samples that detected it`` (built on demand)."""
        return self.users.mapping(self.users.votes)

    @property
    def merchant_votes(self) -> Counter[int]:
        """``label -> number of samples that detected it`` (built on demand)."""
        return self.merchants.mapping(self.merchants.votes)

    @property
    def user_appearances(self) -> Counter[int] | None:
        """``label -> number of samples that contained it``, when tracked."""
        return self.users.mapping(self.users.seen)

    @property
    def merchant_appearances(self) -> Counter[int] | None:
        """``label -> number of samples that contained it``, when tracked."""
        return self.merchants.mapping(self.merchants.seen)

    def max_user_votes(self) -> int:
        """Highest vote count any user received (0 when nothing was voted)."""
        return int(self.users.votes.max(initial=0))

    def vote_histogram(self) -> dict[int, int]:
        """``votes -> number of users with that many votes`` (diagnostics)."""
        histogram = np.bincount(self.users.votes)
        return {int(votes): int(histogram[votes]) for votes in np.flatnonzero(histogram) if votes}


def majority_vote(table: VoteTable, threshold: int) -> DetectionResult:
    """The paper's MVA: accept node ``u`` iff ``Σ_i h_i(u) ≥ T``."""
    if threshold < 1:
        raise AggregationError(f"voting threshold T must be >= 1, got {threshold}")
    return DetectionResult(
        user_labels=table.users.accepted(table.users.votes >= threshold),
        merchant_labels=table.merchants.accepted(table.merchants.votes >= threshold),
    )


def normalized_majority_vote(
    table: VoteTable, fraction: float, min_appearances: int = 1
) -> DetectionResult:
    """Accept when ``votes / appearances ≥ fraction``.

    Requires appearance counts (see :meth:`VoteTable.attach_appearances`).
    ``min_appearances`` suppresses nodes sampled too rarely for their vote
    fraction to mean anything.
    """
    if not 0.0 < fraction <= 1.0:
        raise AggregationError(f"fraction must be in (0, 1], got {fraction}")
    if table.users.seen is None or table.merchants.seen is None:
        raise AggregationError(
            "normalized vote needs appearance counts; call attach_appearances() first"
        )

    def accept(side: NodeVotes) -> np.ndarray:
        keep = (side.votes > 0) & (side.seen >= min_appearances) & (side.seen > 0)
        keep[keep] = side.votes[keep] / side.seen[keep] >= fraction
        return side.accepted(keep)

    return DetectionResult(user_labels=accept(table.users), merchant_labels=accept(table.merchants))
