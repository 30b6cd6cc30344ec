"""Property tests of the dense vote table against from-scratch tallies.

Random sequences of member refreshes are merged through
:meth:`IncrementalEnsemFDet._merge_refreshed` — with permanently failed
refreshes that keep stale votes, nodes interned mid-stream, detections
with and without the batched kernel's index arrays, and members whose new
detection is empty so counts fall to zero. After every step the live
table must equal a fresh tally of the current member states, and no
``label -> count`` view may list a zero. The cold tally is checked on
parents that repeat labels.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import uniform_bipartite
from repro.ensemble import EnsemFDetConfig, IncrementalEnsemFDet, VoteTable
from repro.ensemble.runner import MemberRun
from repro.errors import QuorumError
from repro.fdet import FdetConfig, batched
from repro.graph import BipartiteGraph
from repro.parallel import FaultTolerance
from repro.sampling import StableEdgeSampler

N_MEMBERS = 6


def _detector() -> IncrementalEnsemFDet:
    config = EnsemFDetConfig(
        sampler=StableEdgeSampler(0.5, stripe=16),
        n_samples=N_MEMBERS,
        fdet=FdetConfig(max_blocks=4),
        executor="serial",
        seed=3,
        track_appearances=True,
        tolerance=FaultTolerance(max_retries=0, min_quorum=0.01),
    )
    detector = IncrementalEnsemFDet(config)
    # labels out of order, so node index and label order differ
    graph = uniform_bipartite(12, 8, 60, rng=1)
    graph = BipartiteGraph(
        graph.n_users,
        graph.n_merchants,
        graph.edge_users,
        graph.edge_merchants,
        user_labels=1000 - 7 * np.arange(graph.n_users),
        merchant_labels=500 - 3 * np.arange(graph.n_merchants),
    )
    detector.fit(graph)
    return detector


def _grown(graph: BipartiteGraph, new_users: int, new_merchants: int) -> BipartiteGraph:
    """``graph`` with fresh nodes interned after the existing ones."""
    users = np.concatenate([graph.user_labels, 5000 + graph.n_users + np.arange(new_users)])
    merchants = np.concatenate(
        [graph.merchant_labels, 9000 + graph.n_merchants + np.arange(new_merchants)]
    )
    return BipartiteGraph(
        users.size,
        merchants.size,
        graph.edge_users,
        graph.edge_merchants,
        user_labels=users,
        merchant_labels=merchants,
    )


def _detection(graph, sample_users, sample_merchants, detected_users, detected_merchants, indexed):
    """A member detection as the runner returns it (batched or not)."""
    ulabels = np.sort(graph.user_labels[detected_users])
    mlabels = np.sort(graph.merchant_labels[detected_merchants])
    return SimpleNamespace(
        result=SimpleNamespace(detected_users=lambda: ulabels, detected_merchants=lambda: mlabels),
        detected_user_indices=detected_users if indexed else None,
        detected_merchant_indices=detected_merchants if indexed else None,
        sample_users=graph.user_labels[sample_users],
        sample_merchants=graph.merchant_labels[sample_merchants],
    )


def _subset(draw, pool: np.ndarray, allow_empty: bool = True) -> np.ndarray:
    if not pool.size:
        return pool
    mask = draw(st.lists(st.booleans(), min_size=pool.size, max_size=pool.size))
    chosen = pool[np.array(mask, dtype=bool)]
    if not chosen.size and not allow_empty:
        chosen = pool[:1]
    return chosen


@st.composite
def refresh_steps(draw):
    """One merge step: node growth plus per-member outcomes."""
    steps = []
    n_users, n_merchants = 12, 8
    for _ in range(draw(st.integers(1, 5))):
        new_users = draw(st.integers(0, 3))
        new_merchants = draw(st.integers(0, 2))
        n_users += new_users
        n_merchants += new_merchants
        members = draw(st.lists(st.integers(0, N_MEMBERS - 1), max_size=N_MEMBERS, unique=True))
        outcomes = []
        for _member in members:
            if draw(st.integers(0, 4)) == 0:
                outcomes.append(None)  # permanent failure: stale votes stay
                continue
            sample_users = _subset(draw, np.arange(n_users), allow_empty=False)
            sample_merchants = _subset(draw, np.arange(n_merchants), allow_empty=False)
            outcomes.append(
                (
                    sample_users,
                    sample_merchants,
                    _subset(draw, sample_users),
                    _subset(draw, sample_merchants),
                    draw(st.booleans()),
                )
            )
        steps.append((new_users, new_merchants, members, outcomes))
    return steps


def _assert_matches_fresh_tally(detector: IncrementalEnsemFDet) -> None:
    table = detector.vote_table
    fresh = detector._tally()
    for live, scratch in ((table.users, fresh.users), (table.merchants, fresh.merchants)):
        assert np.array_equal(live.labels, scratch.labels)
        assert np.array_equal(live.votes, scratch.votes)
        assert np.array_equal(live.seen, scratch.seen)
        assert live.votes.dtype == np.int32 and live.seen.dtype == np.int32
    state = detector.state()
    by_label = VoteTable.from_detections(state.detected_users, state.detected_merchants)
    by_label.attach_appearances(state.sample_users, state.sample_merchants)
    for view in ("user_votes", "merchant_votes", "user_appearances", "merchant_appearances"):
        mapping = getattr(table, view)
        assert mapping == getattr(by_label, view)
        assert all(count > 0 for count in mapping.values())


@given(refresh_steps())
@settings(max_examples=40, deadline=None)
def test_merged_table_equals_fresh_tally(steps):
    detector = _detector()
    _assert_matches_fresh_tally(detector)
    for new_users, new_merchants, members, outcomes in steps:
        graph = _grown(detector.graph, new_users, new_merchants)
        detections = [
            None if outcome is None else _detection(graph, *outcome) for outcome in outcomes
        ]
        run = MemberRun(detections=detections, failures=(), retry_log=())
        try:
            detector._merge_refreshed(run, members, graph)
        except QuorumError:
            pass  # the merge landed before the quorum check
        failed = {m for m, outcome in zip(members, outcomes) if outcome is None}
        assert failed <= set(detector.stale_members)
        _assert_matches_fresh_tally(detector)


@st.composite
def repeated_label_detections(draw):
    """A parent whose labels repeat, and member detections over it."""
    n_users = draw(st.integers(1, 15))
    labels = np.array(draw(st.lists(st.integers(0, 6), min_size=n_users, max_size=n_users)))
    members = []
    for _ in range(draw(st.integers(0, 5))):
        nodes = np.array(
            sorted(draw(st.sets(st.integers(0, n_users - 1), max_size=n_users))), dtype=np.int64
        )
        members.append((nodes, draw(st.booleans())))
    return labels, members


@given(repeated_label_detections())
@settings(max_examples=80, deadline=None)
def test_cold_tally_votes_each_label_once_per_member(case):
    labels, members = case
    graph = BipartiteGraph(labels.size, 1, [], [], user_labels=labels)
    detections = []
    for nodes, indexed in members:
        detected = np.unique(labels[nodes])
        detections.append(
            SimpleNamespace(
                result=SimpleNamespace(
                    detected_users=lambda d=detected: d,
                    detected_merchants=lambda: np.empty(0, dtype=np.int64),
                ),
                detected_user_indices=nodes if indexed else None,
                detected_merchant_indices=np.empty(0, dtype=np.int64) if indexed else None,
            )
        )
    users, _merchants = batched.vote_counters(detections, graph)
    expected = Counter()
    for nodes, _indexed in members:
        expected.update(set(labels[nodes].tolist()))
    hit = np.flatnonzero(users)
    assert dict(zip(labels[hit].tolist(), users[hit].tolist())) == dict(expected)
    # one count per label: the first node carries it
    assert len(set(labels[hit].tolist())) == hit.size
