"""Stripe-sharded ensemble: bitwise parity with the unsharded fit for every
sampler family, shard failure degradation through the quorum path, and the
merge fault point."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import chung_lu_bipartite
from repro.ensemble import EnsemFDet, EnsemFDetConfig, plan_shards
from repro.ensemble.sharding import merge_shard_votes, run_sharded
from repro.errors import DetectionError, QuorumError, SamplingError
from repro.faults import arm, disarm
from repro.faults.chaos import leaked_spills
from repro.fdet import FdetConfig
from repro.graph import LiveWindow
from repro.graph.window import EdgeWindow
from repro.parallel import FaultTolerance, ReusablePool
from repro.sampling import (
    OneSideNodeSampler,
    RandomEdgeSampler,
    SamplePlan,
    StableEdgeSampler,
    TwoSideNodeSampler,
)


@pytest.fixture(scope="module")
def graph():
    g = chung_lu_bipartite(400, 150, 3000, rng=4)
    rng = np.random.default_rng(8)
    return g.with_weights(rng.integers(1, 64, size=g.n_edges) / 2.0)


def _config(sampler, **kwargs):
    return EnsemFDetConfig(
        sampler=sampler,
        n_samples=9,
        fdet=FdetConfig(max_blocks=4),
        seed=21,
        **kwargs,
    )


def _tables(result):
    return result.vote_table.user_votes, result.vote_table.merchant_votes


class TestPlanShards:
    def test_near_equal_contiguous_groups(self):
        plan = plan_shards(10, 3)
        assert plan.members == ((0, 1, 2, 3), (4, 5, 6), (7, 8, 9))
        assert plan.n_shards == 3

    def test_caps_at_member_count(self):
        assert plan_shards(2, 8).members == ((0,), (1,))

    def test_single_shard(self):
        assert plan_shards(4, 1).members == ((0, 1, 2, 3),)

    def test_rejects_non_positive(self):
        with pytest.raises(DetectionError):
            plan_shards(4, 0)


class TestShardedParity:
    @pytest.mark.parametrize("shards", [2, 3, 9])
    @pytest.mark.parametrize("make", [lambda: RandomEdgeSampler(0.35),
                                      lambda: StableEdgeSampler(0.35, stripe=64),
                                      lambda: OneSideNodeSampler(0.35, "user"),
                                      lambda: OneSideNodeSampler(0.35, "merchant"),
                                      lambda: TwoSideNodeSampler(0.6)],
                             ids=["random_edge", "stable_edge", "ons_user",
                                  "ons_merchant", "tns"])
    def test_matches_unsharded(self, graph, shards, make):
        reference = _tables(EnsemFDet(_config(make())).fit(graph))
        sharded = EnsemFDet(_config(make(), shards=shards)).fit(graph)
        assert _tables(sharded) == reference

    def test_matches_unsharded_out_of_core(self, graph):
        make = lambda: StableEdgeSampler(0.35, stripe=64)
        reference = _tables(EnsemFDet(_config(make())).fit(graph))
        sharded = EnsemFDet(_config(make(), shards=3, executor="process", n_workers=2)).fit(graph)
        assert _tables(sharded) == reference
        # every shard went out as its own spilled store file
        assert [entry["transport"] for entry in sharded.retry_log] == ["file"] * 3
        assert leaked_spills() == []

    def test_windowed_parity(self, graph):
        alive = np.ones(graph.n_edges, dtype=bool)
        alive[1::4] = False
        window = LiveWindow(
            graph=graph,
            alive=alive,
            edge_ids=np.arange(graph.n_edges, dtype=np.int64),
            watermark=graph.n_edges,
        )
        make = lambda: StableEdgeSampler(0.35, stripe=64)
        reference = _tables(EnsemFDet(_config(make())).fit_window(window))
        sharded = EnsemFDet(_config(make(), shards=3)).fit_window(window)
        assert _tables(sharded) == reference

    def test_process_backend_parity(self, graph):
        make = lambda: StableEdgeSampler(0.35, stripe=64)
        reference = _tables(EnsemFDet(_config(make())).fit(graph))
        sharded = EnsemFDet(
            _config(make(), shards=2, executor="process", n_workers=2)
        ).fit(graph)
        assert _tables(sharded) == reference

    def test_warm_pool_parity(self, graph):
        """Every shard's fan-out reuses the same warm workers."""
        make = lambda: RandomEdgeSampler(0.35)
        reference = _tables(EnsemFDet(_config(make())).fit(graph))
        with ReusablePool(n_workers=2) as pool:
            sharded = EnsemFDet(_config(make(), shards=3, executor="process"), pool=pool)
            first = sharded.fit(graph)
            executor = pool._executor
            second = sharded.fit(graph)
            assert pool._executor is executor and pool.restarts == 0
        assert _tables(first) == reference == _tables(second)
        assert leaked_spills() == []


class TestShardingErrors:
    @staticmethod
    def _run_windowed(graph, plan):
        window = EdgeWindow(
            alive=np.ones(graph.n_edges, dtype=bool),
            edge_ids=np.arange(graph.n_edges, dtype=np.int64),
        )
        return run_sharded(graph, [plan], FdetConfig(), plan_shards(1, 1), window=window)

    def test_windowed_node_plans_rejected(self, graph):
        plan = SamplePlan(kind="nodes", users=np.array([0, 1]), merchants=np.array([0]))
        with pytest.raises(SamplingError, match="requires stripe plans"):
            self._run_windowed(graph, plan)

    def test_windowed_edge_plans_rejected(self, graph):
        plan = SamplePlan(kind="edges", edge_indices=np.array([0, 5, 9]))
        with pytest.raises(SamplingError, match="requires stripe plans"):
            self._run_windowed(graph, plan)

    def test_config_rejects_zero_shards(self):
        with pytest.raises(DetectionError):
            EnsemFDetConfig(shards=0)


class TestShardFaults:
    def test_shard_worker_crash_degrades_via_quorum(self, graph):
        """A member crashing inside a shard is retried, then dropped; the
        run survives on quorum exactly like an unsharded fit.

        Fault indices are shard-local (each shard's run_members numbers its
        members from 0), so the plan is bounded to two firings — the first
        attempt and its retry, both inside shard 0."""
        arm("raise:point=member.detect,index=2,attempt=-1,times=2")
        try:
            result = EnsemFDet(
                _config(
                    StableEdgeSampler(0.35, stripe=64),
                    shards=3,
                    tolerance=FaultTolerance(max_retries=1, min_quorum=0.5),
                )
            ).fit(graph)
        finally:
            disarm()
        failed = {f.index for f in result.failed_members}
        assert failed == {2}
        assert any(entry.get("shard") == 0 for entry in result.retry_log)

    def test_shard_crash_below_quorum_raises(self, graph):
        arm("raise:point=member.detect,attempt=-1,times=-1")
        try:
            with pytest.raises(QuorumError):
                EnsemFDet(
                    _config(
                        StableEdgeSampler(0.35, stripe=64),
                        shards=3,
                        tolerance=FaultTolerance(max_retries=0, min_quorum=0.5),
                    )
                ).fit(graph)
        finally:
            disarm()

    def test_merge_fault_falls_back_to_global_tally(self, graph):
        make = lambda: StableEdgeSampler(0.35, stripe=64)
        reference = _tables(EnsemFDet(_config(make())).fit(graph))
        arm("raise:point=shard.merge,times=-1")
        try:
            sharded = EnsemFDet(_config(make(), shards=3)).fit(graph)
        finally:
            disarm()
        assert _tables(sharded) == reference

    def test_merge_shard_votes_returns_none_on_fault(self, graph):
        arm("raise:point=shard.merge")
        try:
            result = EnsemFDet(_config(StableEdgeSampler(0.35, stripe=64))).fit(graph)
            grouped = [[d for d in result.sample_detections if d is not None]]
            assert merge_shard_votes(grouped, graph) is None
        finally:
            disarm()
