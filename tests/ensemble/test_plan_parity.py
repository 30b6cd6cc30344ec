"""Bitwise parity of the plan/store-file fan-out vs the eager pipeline.

The zero-copy refactor's contract: for every sampler and every executor
backend, ``EnsemFDet.fit`` driven by ``plan_many`` + worker-side
materialization produces **exactly** the subgraphs, per-sample detections
and vote table the historical eager ``sample_many`` pipeline produced —
same RNG consumption, deterministic materialization, byte-for-byte arrays.
Node plans (ONS/TNS) run through the batched kernel on every executor and
in shards, and must equal ``materialize_plan`` + the reference engine.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.ensemble import (
    EnsemFDet,
    EnsemFDetConfig,
    detect_on_plans,
    plan_shards,
    run_members,
)
from repro.ensemble.sharding import run_sharded
from repro.ensemble.voting import VoteTable
from repro.errors import GraphError
from repro.faults import arm, disarm
from repro.faults.chaos import leaked_spills
from repro.fdet import Fdet, FdetConfig, PeelEngine, batched
from repro.fdet._native import native_available
from repro.graph import BipartiteGraph, GraphStore, attached_store, detach_all
from repro.parallel import ExecutorMode, FaultTolerance, ReusablePool
from repro.sampling import (
    OneSideNodeSampler,
    RandomEdgeSampler,
    Side,
    StableEdgeSampler,
    TwoSideNodeSampler,
    materialize_plan,
    resolve_rng,
)

#: all five sampling variants the registry exposes (plus the reweighted RES)
SAMPLER_FACTORIES = {
    "res": lambda: RandomEdgeSampler(0.35),
    "res_reweight": lambda: RandomEdgeSampler(0.35, reweight=True),
    "ons_user": lambda: OneSideNodeSampler(0.4, Side.USER),
    "ons_merchant": lambda: OneSideNodeSampler(0.4, Side.MERCHANT),
    "tns": lambda: TwoSideNodeSampler(0.6),
    "ses": lambda: StableEdgeSampler(0.35, stripe=32),
}

BACKENDS = ExecutorMode.ALL


@pytest.fixture(scope="module")
def parent() -> BipartiteGraph:
    """A deterministic weighted graph with a dense corner (~2.5k edges)."""
    rng = np.random.default_rng(7)
    users = rng.integers(0, 300, size=2200)
    merchants = rng.integers(0, 80, size=2200)
    block = [(u, m) for u in range(280, 300) for m in range(70, 80)]
    edge_users = np.concatenate([users, np.array([u for u, _ in block])])
    edge_merchants = np.concatenate([merchants, np.array([m for _, m in block])])
    weights = rng.uniform(0.5, 2.0, size=edge_users.size)
    return BipartiteGraph(300, 80, edge_users, edge_merchants, edge_weights=weights)


def assert_graphs_bitwise_equal(a: BipartiteGraph, b: BipartiteGraph) -> None:
    assert (a.n_users, a.n_merchants) == (b.n_users, b.n_merchants)
    assert np.array_equal(a.edge_users, b.edge_users)
    assert np.array_equal(a.edge_merchants, b.edge_merchants)
    assert (a.edge_weights is None) == (b.edge_weights is None)
    if a.edge_weights is not None:
        # bitwise, not approximate: materialization must not re-derive weights
        assert np.array_equal(a.edge_weights, b.edge_weights)
    assert np.array_equal(a.user_labels, b.user_labels)
    assert np.array_equal(a.merchant_labels, b.merchant_labels)


def assert_results_equal(plan_based, eager) -> None:
    """Two lists of ``FdetResult``s agree density for density, node for node."""
    assert len(plan_based) == len(eager)
    for p, e in zip(plan_based, eager):
        assert p.k_hat == e.k_hat
        assert np.array_equal(p.densities, e.densities)
        assert np.array_equal(p.detected_users(), e.detected_users())
        assert np.array_equal(p.detected_merchants(), e.detected_merchants())


def results_of(detections):
    return [detection.result for detection in detections]


def eager_reference_fit(parent, config):
    """The historical pipeline: materialize everything, then detect each
    sample on the reference engine."""
    rng = resolve_rng(config.seed)
    samples = config.sampler.sample_many(parent, config.n_samples, rng)
    oracle = Fdet(replace(config.fdet, engine=PeelEngine.REFERENCE))
    results = [oracle.detect(sample) for sample in samples]
    table = VoteTable.from_detections(
        [result.detected_users().tolist() for result in results],
        [result.detected_merchants().tolist() for result in results],
    )
    return table, results


class TestPlanMaterializeParity:
    """``materialize(plan(...))`` reproduces the eager sample bit for bit."""

    @pytest.mark.parametrize("name", sorted(SAMPLER_FACTORIES))
    def test_sample_stream_identical(self, parent, name):
        sampler = SAMPLER_FACTORIES[name]()
        eager = sampler.sample_many(parent, 6, rng=11)
        plans = sampler.plan_many(parent, 6, rng=11)
        assert len(plans) == 6
        for subgraph, plan in zip(eager, plans):
            assert_graphs_bitwise_equal(subgraph, materialize_plan(parent, plan))

    @pytest.mark.parametrize("name", sorted(SAMPLER_FACTORIES))
    def test_single_sample_identical(self, parent, name):
        sampler = SAMPLER_FACTORIES[name]()
        eager = sampler.sample(parent, rng=5)
        again = materialize_plan(parent, sampler.plan(parent, rng=5))
        assert_graphs_bitwise_equal(eager, again)

    @pytest.mark.parametrize("name", sorted(SAMPLER_FACTORIES))
    def test_plans_are_compact(self, parent, name):
        """A plan ships far fewer bytes than the subgraph it describes."""
        sampler = SAMPLER_FACTORIES[name]()
        plan = sampler.plan(parent, rng=3)
        subgraph = materialize_plan(parent, plan)
        subgraph_bytes = GraphStore.from_graph(subgraph).nbytes
        if subgraph_bytes:
            assert plan.nbytes < subgraph_bytes

    def test_plan_materializes_against_mapped_view(self, parent):
        """Materializing against a read-only mapped view is still bitwise."""
        sampler = RandomEdgeSampler(0.35)
        plans = sampler.plan_many(parent, 3, rng=2)
        eager = sampler.sample_many(parent, 3, rng=2)
        shared = GraphStore.from_graph(parent).export_shared()
        try:
            view = attached_store(shared.layout).to_graph()
            assert not view.edge_users.flags.writeable
            for subgraph, plan in zip(eager, plans):
                assert_graphs_bitwise_equal(subgraph, materialize_plan(view, plan))
        finally:
            detach_all()
            shared.dispose()
        assert leaked_spills() == []


class TestFitParity:
    """The plan-based fit equals the eager reference on every backend."""

    @pytest.mark.parametrize("name", sorted(SAMPLER_FACTORIES))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fit_matches_eager_reference(self, parent, name, backend):
        config = EnsemFDetConfig(
            sampler=SAMPLER_FACTORIES[name](),
            n_samples=6,
            fdet=FdetConfig(max_blocks=4),
            executor=backend,
            n_workers=2,
            seed=13,
        )
        reference_table, reference_results = eager_reference_fit(parent, config)
        result = EnsemFDet(config).fit(parent)
        assert result.vote_table.user_votes == reference_table.user_votes
        assert result.vote_table.merchant_votes == reference_table.merchant_votes
        assert_results_equal(results_of(result.sample_detections), reference_results)
        assert leaked_spills() == []

    def test_spilled_and_pickled_store_agree(self, parent):
        config = FdetConfig(max_blocks=4)
        sampler = RandomEdgeSampler(0.35)
        plans = sampler.plan_many(parent, 6, rng=4)
        spilled = run_members(parent, plans, config, mode=ExecutorMode.PROCESS, n_workers=2)
        # every worker fails to map the spill: the retry ships the pickled store
        arm("raise:point=mmap.open,times=-1")
        try:
            pickled = run_members(
                parent, plans, config, mode=ExecutorMode.PROCESS, n_workers=2,
                tolerance=FaultTolerance(max_retries=1, degrade=False),
            )
        finally:
            disarm()
        assert [entry["transport"] for entry in spilled.retry_log] == ["spill"]
        assert [entry["transport"] for entry in pickled.retry_log] == ["spill", "pickle"]
        assert pickled.retry_log[1]["members"] == list(range(6))
        assert not pickled.failures
        assert_results_equal(results_of(spilled.detections), results_of(pickled.detections))
        assert leaked_spills() == []

    @pytest.mark.parametrize("name", sorted(SAMPLER_FACTORIES))
    def test_fit_on_reusable_pool_matches(self, parent, name):
        """Every plan kind runs on warm process workers, fit after fit."""
        config = EnsemFDetConfig(
            sampler=SAMPLER_FACTORIES[name](),
            n_samples=6,
            fdet=FdetConfig(max_blocks=4),
            executor=ExecutorMode.PROCESS,
            seed=13,
        )
        reference_table, reference_results = eager_reference_fit(parent, config)
        with ReusablePool(n_workers=2) as pool:
            first = EnsemFDet(config, pool=pool).fit(parent)
            second = EnsemFDet(config, pool=pool).fit(parent)
            assert pool.restarts == 0
        for result in (first, second):
            assert [entry["backend"] for entry in result.retry_log] == ["process"]
            assert result.vote_table.user_votes == reference_table.user_votes
            assert result.vote_table.merchant_votes == reference_table.merchant_votes
            assert_results_equal(results_of(result.sample_detections), reference_results)
        assert leaked_spills() == []

    def test_track_appearances_parity_across_backends(self, parent):
        tables = []
        for backend in BACKENDS:
            config = EnsemFDetConfig(
                sampler=RandomEdgeSampler(0.35),
                n_samples=5,
                fdet=FdetConfig(max_blocks=4),
                executor=backend,
                n_workers=2,
                seed=21,
                track_appearances=True,
            )
            tables.append(EnsemFDet(config).fit(parent).vote_table)
        for table in tables[1:]:
            assert table.user_votes == tables[0].user_votes
            assert table.user_appearances == tables[0].user_appearances
            assert table.merchant_appearances == tables[0].merchant_appearances


class TestTrustedViews:
    """FDET accepts read-only store-backed graphs without re-validation."""

    def test_detect_on_shared_view_matches_original(self, parent):
        shared = GraphStore.from_graph(parent).export_shared()
        try:
            view = attached_store(shared.layout).to_graph()
            direct = Fdet(FdetConfig(max_blocks=4)).detect(parent)
            via_view = Fdet(FdetConfig(max_blocks=4)).detect(view)
            assert np.array_equal(direct.densities, via_view.densities)
            assert np.array_equal(direct.detected_users(), via_view.detected_users())
        finally:
            detach_all()
            shared.dispose()

    def test_spill_gone_after_dispose(self, parent):
        shared = GraphStore.from_graph(parent).export_shared()
        shared.dispose()
        shared.dispose()  # idempotent
        with pytest.raises(GraphError, match="does not exist"):
            attached_store(shared.layout)


NODE_SAMPLERS = ("ons_user", "ons_merchant", "tns")

needs_kernel = pytest.mark.skipif(
    not native_available(), reason="native kernel unavailable (no C compiler)"
)


def assert_results_bitwise_equal(left, right) -> None:
    """Two ``FdetResult``s agree block by block, bit for bit."""
    assert left.k_hat == right.k_hat
    assert len(left.all_blocks) == len(right.all_blocks)
    for lb, rb in zip(left.all_blocks, right.all_blocks):
        assert np.array_equal(lb.user_labels, rb.user_labels)
        assert np.array_equal(lb.merchant_labels, rb.merchant_labels)
        assert lb.density == rb.density
        assert lb.n_edges == rb.n_edges


def node_plans(parent, name):
    plans = SAMPLER_FACTORIES[name]().plan_many(parent, 6, rng=17)
    assert all(plan.kind == "nodes" for plan in plans)
    return plans


def oracle_results(parent, plans, config):
    """``materialize_plan`` + the reference engine, member by member."""
    oracle = Fdet(replace(config, engine=PeelEngine.REFERENCE))
    return [oracle.detect(materialize_plan(parent, plan)) for plan in plans]


class TestNodePlanKernelParity:
    """ONS/TNS plans reach the batched kernel and match the oracle."""

    @pytest.mark.parametrize("name", NODE_SAMPLERS)
    def test_plan_keeps_the_induced_subgraph(self, parent, name):
        """A node plan keeps exactly the edges both of whose endpoints it picked."""
        for plan in node_plans(parent, name):
            induced = parent.induced_subgraph(users=plan.users, merchants=plan.merchants)
            assert_graphs_bitwise_equal(materialize_plan(parent, plan), induced)

    @needs_kernel
    @pytest.mark.parametrize("name", NODE_SAMPLERS)
    def test_detect_many_matches_reference(self, parent, name):
        config = FdetConfig(max_blocks=6)
        plans = node_plans(parent, name)
        native = batched.detect_many(parent, plans, config)
        for plan, nd, expected in zip(plans, native, oracle_results(parent, plans, config)):
            assert_results_bitwise_equal(nd.result, expected)
            subgraph = materialize_plan(parent, plan)
            assert np.array_equal(nd.user_labels, subgraph.user_labels)
            assert np.array_equal(nd.merchant_labels, subgraph.merchant_labels)

    @pytest.mark.parametrize("name", NODE_SAMPLERS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_executor_matches_reference(self, parent, name, backend):
        config = FdetConfig(max_blocks=6)
        plans = node_plans(parent, name)
        detections = detect_on_plans(parent, plans, config, mode=backend, n_workers=2)
        for detection, expected in zip(detections, oracle_results(parent, plans, config)):
            assert_results_bitwise_equal(detection.result, expected)
            # parent node indices come only from the batched kernel
            has_indices = detection.detected_user_indices is not None
            assert has_indices == native_available()
        assert leaked_spills() == []

    @pytest.mark.parametrize("name", NODE_SAMPLERS)
    def test_sharded_matches_unsharded(self, parent, name):
        config = FdetConfig(max_blocks=6)
        plans = node_plans(parent, name)
        unsharded = run_members(parent, plans, config)
        sharded = run_sharded(parent, plans, config, plan_shards(len(plans), 3))
        assert not unsharded.failures and not sharded.failures
        for left, right in zip(sharded.detections, unsharded.detections):
            assert_results_bitwise_equal(left.result, right.result)
            assert np.array_equal(left.sample_users, right.sample_users)
            assert np.array_equal(left.sample_merchants, right.sample_merchants)
