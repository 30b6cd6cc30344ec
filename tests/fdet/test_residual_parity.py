"""Residual peeling in the kernel: each block peels only its live graph.

``repro_fdet_batch`` carves every block out of the residual graph and
sorts and peels only its live nodes: isolated nodes (no alive edge,
priority 0.0) pop first in node order, so their density prefix is
replayed, unless some live priority is not ``> 0.0`` and the whole node
set peels. Both entry points run one peel loop whose hot heap keeps each
node at its running-minimum key. Every case here targets one of those
rules and compares against the oracle — the reference engine, which never
touches the kernel. A closing sweep runs both entry points over sparse,
medium and skewed graphs with unit, positive and signed weights, whose
later blocks all peel a residual graph with isolated nodes (and, with
signed weights, take the guard).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.datasets import chung_lu_bipartite
from repro.ensemble import EnsemFDet, EnsemFDetConfig, IncrementalEnsemFDet
from repro.fdet import Fdet, FdetConfig, PeelEngine, WeightPolicy, greedy_peel
from repro.fdet import batched
from repro.fdet._native import native_available
from repro.graph import BipartiteGraph, WindowConfig
from repro.sampling import StableEdgeSampler
from repro.sampling.base import SamplePlan

pytestmark = pytest.mark.skipif(
    not native_available(), reason="native kernel unavailable (no C compiler)"
)


def oracle(config: FdetConfig) -> FdetConfig:
    """The same FDET configuration on the reference engine."""
    return replace(config, engine=PeelEngine.REFERENCE)


def assert_same_blocks(left, right):
    assert left.k_hat == right.k_hat
    assert len(left.all_blocks) == len(right.all_blocks)
    for lb, rb in zip(left.all_blocks, right.all_blocks):
        assert np.array_equal(lb.user_labels, rb.user_labels)
        assert np.array_equal(lb.merchant_labels, rb.merchant_labels)
        assert lb.density == rb.density  # bitwise, no tolerance
        assert lb.n_edges == rb.n_edges


def residual_priorities(graph, config):
    """Node priorities of every block's residual graph on the reference loop."""
    frozen = graph.merchant_degrees() if config.weight_policy == WeightPolicy.FROZEN else None
    current = graph
    for _ in range(config.max_blocks):
        if current.is_empty:
            return
        weights = config.metric.edge_weights(current, frozen)
        priority = np.zeros(current.n_nodes, dtype=np.float64)
        np.add.at(priority, current.edge_users, weights)
        np.add.at(priority, current.n_users + current.edge_merchants, weights)
        degrees = np.concatenate([current.user_degrees(), current.merchant_degrees()])
        yield degrees, priority
        peel = greedy_peel(current, weights, engine=PeelEngine.REFERENCE)
        current = current.remove_edges(peel.edge_indices(current))


class TestServeShapedWindow:
    """Stripe-plan members of a rolling window at ``max_blocks=15``."""

    def _config(self, fdet):
        return EnsemFDetConfig(
            sampler=StableEdgeSampler(0.5, stripe=32), n_samples=6, fdet=fdet, seed=5
        )

    def test_rolling_window_tail_blocks(self):
        graph = chung_lu_bipartite(300, 120, 1000, rng=21)
        fdet = FdetConfig(max_blocks=15)
        detector = IncrementalEnsemFDet(self._config(fdet), window=WindowConfig(max_batches=3))
        detector.fit(graph, timestamp=0.0)
        previous = graph
        for step in range(4):
            batch = chung_lu_bipartite(300, 120, 1000, rng=100 + step)
            # each batch also retracts two edges of the previous one
            detector.update(
                batch.edge_users,
                batch.edge_merchants,
                remove_users=previous.edge_users[-2:],
                remove_merchants=previous.edge_merchants[-2:],
                timestamp=float(step + 1),
            )
            previous = batch
        window = detector.window()
        assert window.watermark > window.n_live  # batches really expired

        kernel = EnsemFDet(self._config(fdet)).fit_window(window, track_members=True)
        reference = EnsemFDet(self._config(oracle(fdet))).fit_window(
            window, track_members=True
        )
        # the serve shape: a giant first block, then small tail blocks
        blocks = [d.result.all_blocks for d in reference.sample_detections]
        assert max(len(b) for b in blocks) >= 6
        assert all(b[0].n_nodes > b[2].n_nodes for b in blocks if len(b) > 2)

        assert dict(detector.vote_table.user_votes) == dict(reference.vote_table.user_votes)
        assert dict(kernel.vote_table.user_votes) == dict(reference.vote_table.user_votes)
        assert dict(kernel.vote_table.merchant_votes) == dict(
            reference.vote_table.merchant_votes
        )
        for left, right in zip(kernel.sample_detections, reference.sample_detections):
            assert_same_blocks(left.result, right.result)


class TestResidualGuard:
    @pytest.mark.parametrize("policy", WeightPolicy.ALL)
    def test_non_positive_live_node_beside_isolated_nodes(self, policy):
        """A later block whose residual has isolated nodes and a live node
        with priority <= 0 must peel every node, isolated ones included:
        such a node pops before the isolated ones, and a neighbour whose
        priority dipped below 0.0 and rose again pops at that minimum while
        removing its higher current priority from the total."""
        base = chung_lu_bipartite(120, 50, 420, rng=31)
        weights = np.random.default_rng(4).uniform(-3.0, 2.0, base.n_edges)
        graph = base.with_weights(weights)
        config = FdetConfig(max_blocks=10, weight_policy=policy)
        guarded = [
            block
            for block, (degrees, priority) in enumerate(residual_priorities(graph, config))
            if block > 0 and (degrees == 0).any() and (priority[degrees > 0] <= 0.0).any()
        ]
        assert guarded, "no later block exercises the guard"
        assert_same_blocks(Fdet(config).detect(graph), Fdet(oracle(config)).detect(graph))


class TestRunningMinimum:
    # users A=0, B=1; merchants m1=0, m2=1: A-m1 (-7), A-m2 (10), B-m2 (4).
    # Priorities A=3, B=4, m1=-7, m2=14. Popping m1 raises A to 10, yet A
    # pops next at its running minimum 3, ahead of B at 4. Popping B first
    # (current-priority order) would reach density 10/2 and a smaller block.
    GRAPH = BipartiteGraph(2, 2, [0, 0, 1], [0, 1, 1])
    WEIGHTS = np.array([-7.0, 10.0, 4.0])

    def test_rising_priority_keeps_its_minimum(self):
        reference = greedy_peel(self.GRAPH, self.WEIGHTS, engine=PeelEngine.REFERENCE)
        assert reference.densities.tolist() == [1.75, 14.0 / 3.0, 2.0, 0.0]
        fast = greedy_peel(self.GRAPH, self.WEIGHTS, engine=PeelEngine.FAST)
        assert np.array_equal(fast.densities, reference.densities)
        assert np.array_equal(fast.user_mask, reference.user_mask)
        assert np.array_equal(fast.merchant_mask, reference.merchant_mask)

    @pytest.mark.parametrize("policy", WeightPolicy.ALL)
    def test_rising_priority_in_detect(self, policy):
        graph = self.GRAPH.with_weights(self.WEIGHTS)
        config = FdetConfig(max_blocks=4, weight_policy=policy)
        assert_same_blocks(Fdet(config).detect(graph), Fdet(oracle(config)).detect(graph))


class TestKeepNodesMembers:
    """``keep_nodes`` members peel every parent node, isolated ones too."""

    @staticmethod
    def _member_graph(graph, edge_ids):
        """The member as ``Fdet.detect`` sees it: its edges, every node."""
        return graph.remove_edges(np.setdiff1d(np.arange(graph.n_edges), edge_ids))

    @pytest.mark.parametrize("policy", WeightPolicy.ALL)
    def test_sampled_members(self, policy):
        base = chung_lu_bipartite(150, 60, 700, rng=41)
        graph = base.with_weights(np.random.default_rng(2).uniform(0.1, 3.0, base.n_edges))
        rng = np.random.default_rng(43)
        plans = [
            SamplePlan(
                kind="edges",
                edge_indices=np.sort(rng.choice(graph.n_edges, size=size, replace=False)),
            )
            for size in (40, 210, 490)
        ]
        config = FdetConfig(max_blocks=12, weight_policy=policy)
        native = batched.detect_many(graph, plans, config, keep_nodes=True)
        reference = Fdet(oracle(config))
        for plan, nd in zip(plans, native):
            member = self._member_graph(graph, plan.edge_indices)
            assert (member.user_degrees() == 0).any()
            assert_same_blocks(nd.result, reference.detect(member))

    def test_whole_live_graph_is_the_block(self):
        """A member whose densest prefix is exactly its live nodes: the best
        density comes right after the last isolated node pops."""
        base = chung_lu_bipartite(12, 8, 40, rng=3)
        clique_users, clique_merchants = np.divmod(np.arange(9), 3)
        graph = BipartiteGraph(
            12,
            8,
            np.concatenate([base.edge_users, clique_users]),
            np.concatenate([base.edge_merchants, clique_merchants]),
        )
        clique = SamplePlan(kind="edges", edge_indices=np.arange(base.n_edges, graph.n_edges))
        config = FdetConfig(max_blocks=4)
        native = batched.detect_many(graph, [clique], config, keep_nodes=True)
        expected = Fdet(oracle(config)).detect(self._member_graph(graph, clique.edge_indices))
        first = expected.all_blocks[0]
        assert (first.n_users, first.n_merchants, first.n_edges) == (3, 3, 9)
        assert_same_blocks(native[0].result, expected)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_isolated_nodes_outlast_an_overflowing_prefix(self):
        """Every live priority is positive but the total overflows to inf,
        so no density beats the whole graph: the block keeps the isolated
        nodes the residual rule never sorted."""
        graph = BipartiteGraph(6, 4, [0, 1, 2], [0, 1, 2], edge_weights=[1.7e308, 1.7e308, 2.0])
        config = FdetConfig(max_blocks=4)
        everything = SamplePlan(kind="edges", edge_indices=np.arange(graph.n_edges))
        native = batched.detect_many(graph, [everything], config, keep_nodes=True)
        expected = Fdet(oracle(config)).detect(graph)
        first = expected.all_blocks[0]
        assert (first.n_users, first.n_merchants) == (graph.n_users, graph.n_merchants)
        assert_same_blocks(native[0].result, expected)


SWEEP_SHAPES = {
    "sparse": (200, 80, 260),  # most nodes have no edge left after block 0
    "medium": (300, 120, 1_000),
    "skewed": (400, 30, 1_200),  # few merchants with long adjacency spans
}


def sweep_graph(shape, weights, seed):
    """A Chung-Lu graph of ``shape`` with unit, positive or signed weights.

    Signed weights mix negative values with exact ``0.0`` and ``-0.0``, so
    residual priorities cross zero from both sides between blocks.
    """
    graph = chung_lu_bipartite(*SWEEP_SHAPES[shape], rng=seed)
    rng = np.random.default_rng(seed + 1_000)
    if weights == "unit":
        return graph
    if weights == "positive":
        return graph.with_weights(rng.uniform(0.1, 3.0, graph.n_edges))
    values = rng.uniform(-2.0, 2.0, graph.n_edges)
    values[rng.random(graph.n_edges) < 0.1] = 0.0
    values[rng.random(graph.n_edges) < 0.05] = -0.0
    return graph.with_weights(values)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("weights", ["unit", "positive", "signed"])
@pytest.mark.parametrize("shape", list(SWEEP_SHAPES))
class TestResidualSweep:
    """Both kernel entry points against the oracle on a grid of graphs."""

    def test_greedy_peel(self, shape, weights, seed):
        graph = sweep_graph(shape, weights, seed)
        edge_weights = graph.weights_or_ones()
        priors = np.random.default_rng(seed).uniform(0.0, 1.0, graph.n_users)
        for user_weights in (None, priors):
            reference = greedy_peel(
                graph, edge_weights, user_weights, engine=PeelEngine.REFERENCE
            )
            fast = greedy_peel(graph, edge_weights, user_weights, engine=PeelEngine.FAST)
            assert np.array_equal(fast.user_mask, reference.user_mask)
            assert np.array_equal(fast.merchant_mask, reference.merchant_mask)
            assert fast.density == reference.density  # bitwise, no tolerance
            assert fast.n_removed == reference.n_removed
            assert np.array_equal(fast.densities, reference.densities)

    def test_detect(self, shape, weights, seed):
        graph = sweep_graph(shape, weights, seed)
        for policy in WeightPolicy.ALL:
            config = FdetConfig(max_blocks=15, weight_policy=policy)
            reference = Fdet(oracle(config)).detect(graph)
            assert len(reference.all_blocks) > 1  # tail blocks peel a residual graph
            assert_same_blocks(Fdet(config).detect(graph), reference)
