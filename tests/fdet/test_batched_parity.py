"""Batched native ensemble: bitwise parity with the per-member pipeline.

The batched backend (``repro.fdet.batched`` + ``repro_fdet_batch`` in the C
kernel) replaces per-member ``materialize_plan`` + ``Fdet.detect`` with one
multi-member kernel call, and the native vote merge replaces the Python
label tally. Everything it produces must be **bitwise identical** to the
oracle — each member materialized alone and peeled by the reference
engine, which never touches the kernel. This suite pins that down across
sampler families, window modes (append-only and rolling), batch sizes
(1 / 4 / N, including degenerate empty members), execution backends
(serial / thread / process × shared-memory on / off) and both weight
policies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.datasets import chung_lu_bipartite, uniform_bipartite
from repro.ensemble import (
    EnsemFDet,
    EnsemFDetConfig,
    IncrementalEnsemFDet,
    detect_on_plans,
    run_members,
)
from repro.errors import SamplingError
from repro.fdet import (
    AverageDegreeDensity,
    Fdet,
    FdetConfig,
    LogWeightedDensity,
    PeelEngine,
    PriorWeightedDensity,
    WeightPolicy,
)
from repro.fdet import batched
from repro.fdet._native import native_available
from repro.graph import BipartiteGraph, WindowConfig
from repro.graph.window import EdgeWindow
from repro.sampling import (
    OneSideNodeSampler,
    RandomEdgeSampler,
    Side,
    StableEdgeSampler,
    TwoSideNodeSampler,
    materialize_plan,
    resolve_rng,
)
from repro.sampling.base import SamplePlan

pytestmark = pytest.mark.skipif(
    not native_available(), reason="native kernel unavailable (no C compiler)"
)

SAMPLERS = {
    "random-edge": lambda: RandomEdgeSampler(0.3),
    "stable-edge": lambda: StableEdgeSampler(0.3, stripe=16),
    "one-side-user": lambda: OneSideNodeSampler(0.3, Side.USER),
    "one-side-merchant": lambda: OneSideNodeSampler(0.3, Side.MERCHANT),
    "two-side": lambda: TwoSideNodeSampler(0.3),
}


@pytest.fixture(scope="module")
def weighted_graph():
    base = chung_lu_bipartite(120, 50, 900, rng=2)
    return base.with_weights(np.random.default_rng(7).uniform(0.1, 3.0, base.n_edges))


@pytest.fixture(scope="module")
def plain_graph():
    return uniform_bipartite(100, 45, 800, rng=5)


def assert_same_detection(left, right):
    """Bitwise equality of two per-member FDET outputs."""
    lres, rres = left.result, right.result
    assert lres.k_hat == rres.k_hat
    assert len(lres.all_blocks) == len(rres.all_blocks)
    for lb, rb in zip(lres.all_blocks, rres.all_blocks):
        assert np.array_equal(lb.user_labels, rb.user_labels)
        assert np.array_equal(lb.merchant_labels, rb.merchant_labels)
        assert lb.density == rb.density  # bitwise, no tolerance
        assert lb.n_edges == rb.n_edges
    assert np.array_equal(lres.detected_users(), rres.detected_users())
    assert np.array_equal(lres.detected_merchants(), rres.detected_merchants())
    if left.sample_users is not None or right.sample_users is not None:
        assert np.array_equal(left.sample_users, right.sample_users)
        assert np.array_equal(left.sample_merchants, right.sample_merchants)


def assert_tables_equal(a, b):
    assert a.n_samples == b.n_samples
    assert dict(a.user_votes) == dict(b.user_votes)
    assert dict(a.merchant_votes) == dict(b.merchant_votes)


def oracle(fdet: FdetConfig) -> FdetConfig:
    """The same FDET configuration on the reference engine."""
    return replace(fdet, engine=PeelEngine.REFERENCE)


def fit_pair(graph, fdet=FdetConfig(), **overrides):
    """(batched kernel, per-member reference engine) fits of one configuration."""
    batch = EnsemFDet(EnsemFDetConfig(seed=11, fdet=fdet, native_batch=True, **overrides))
    reference = EnsemFDet(
        EnsemFDetConfig(seed=11, fdet=oracle(fdet), native_batch=False, **overrides)
    )
    return batch.fit(graph), reference.fit(graph)


class TestDetectManyDirect:
    """detect_many against materialize_plan + Fdet.detect, member by member."""

    @pytest.mark.parametrize("graph_name", ["weighted", "plain"])
    @pytest.mark.parametrize("policy", WeightPolicy.ALL)
    @pytest.mark.parametrize("metric", [LogWeightedDensity(), AverageDegreeDensity()])
    def test_bitwise_blocks(self, request, graph_name, policy, metric):
        graph = request.getfixturevalue(f"{graph_name}_graph")
        config = FdetConfig(max_blocks=8, weight_policy=policy, metric=metric)
        plans = RandomEdgeSampler(0.4).plan_many(graph, 6, resolve_rng(13))
        native = batched.detect_many(graph, plans, config)
        assert native is not None
        fdet = Fdet(oracle(config))
        for plan, nd in zip(plans, native):
            assert nd is not None
            expected = fdet.detect(materialize_plan(graph, plan))
            assert expected.k_hat == nd.result.k_hat
            assert len(expected.all_blocks) == len(nd.result.all_blocks)
            for eb, nb in zip(expected.all_blocks, nd.result.all_blocks):
                assert np.array_equal(eb.user_labels, nb.user_labels)
                assert np.array_equal(eb.merchant_labels, nb.merchant_labels)
                assert eb.density == nb.density
                assert eb.n_edges == nb.n_edges
            # detected indices gather to exactly the detected labels
            assert np.array_equal(
                np.sort(graph.user_labels[nd.detected_user_indices]),
                expected.detected_users(),
            )
            assert np.array_equal(
                np.sort(graph.merchant_labels[nd.detected_merchant_indices]),
                expected.detected_merchants(),
            )

    @pytest.mark.parametrize("n_members", [1, 4, 9])
    def test_batch_sizes_with_empty_members(self, weighted_graph, n_members):
        """Degenerate members (zero edges) ride along in any batch size."""
        config = FdetConfig(max_blocks=6)
        plans = list(
            RandomEdgeSampler(0.35).plan_many(weighted_graph, n_members, resolve_rng(3))
        )
        empty = SamplePlan(kind="edges", edge_indices=np.empty(0, dtype=np.int64))
        plans[0] = empty
        if n_members >= 4:
            plans[2] = empty
        native = batched.detect_many(weighted_graph, plans, config)
        assert native is not None
        fdet = Fdet(oracle(config))
        for plan, nd in zip(plans, native):
            expected = fdet.detect(materialize_plan(weighted_graph, plan))
            assert nd.result.k_hat == expected.k_hat
            assert [b.density for b in nd.result.all_blocks] == [
                b.density for b in expected.all_blocks
            ]

    def test_weight_scale_applied(self, plain_graph):
        """Horvitz–Thompson rescaled plans peel identically to materialized."""
        config = FdetConfig(max_blocks=6)
        rng = resolve_rng(9)
        indices = rng.choice(plain_graph.n_edges, size=300, replace=False)
        plan = SamplePlan(
            kind="edges",
            edge_indices=np.sort(indices).astype(np.int64),
            weight_scale=1.0 / 0.3,
        )
        native = batched.detect_many(plain_graph, [plan], config)
        expected = Fdet(oracle(config)).detect(materialize_plan(plain_graph, plan))
        assert native[0].result.k_hat == expected.k_hat
        assert [b.density for b in native[0].result.all_blocks] == [
            b.density for b in expected.all_blocks
        ]

    @pytest.mark.parametrize("family", ["random-edge", "two-side"])
    def test_windowed_positional_plan_raises_sampling_error(self, plain_graph, family):
        """Only stripe plans fit a window: every route raises the same error."""
        n = plain_graph.n_edges
        window = EdgeWindow(alive=np.ones(n, dtype=bool), edge_ids=np.arange(n))
        plan = SAMPLERS[family]().plan(plain_graph, resolve_rng(4))
        config = FdetConfig(max_blocks=4)
        with pytest.raises(SamplingError, match="requires stripe plans"):
            materialize_plan(plain_graph, plan, window)
        with pytest.raises(SamplingError, match="requires stripe plans"):
            batched.detect_many(plain_graph, [plan], config, window)
        run = run_members(plain_graph, [plan], config, window=window)
        assert [f.index for f in run.failures] == [0]
        assert isinstance(run.errors[0], SamplingError)
        with pytest.raises(SamplingError, match="requires stripe plans"):
            detect_on_plans(plain_graph, [plan], config, window=window)

    def test_native_off_disables_batch(self, weighted_graph, no_native):
        assert batched.batch_kernels() is None
        plans = RandomEdgeSampler(0.3).plan_many(weighted_graph, 2, resolve_rng(1))
        assert batched.detect_many(weighted_graph, plans, FdetConfig()) is None


class TestEligibilityGating:
    def test_config_gating(self):
        assert batched.config_eligible(FdetConfig())
        assert batched.config_eligible(FdetConfig(metric=AverageDegreeDensity()))
        # prior-carrying metric overrides the node-weight hooks
        assert not batched.config_eligible(
            FdetConfig(metric=PriorWeightedDensity(np.zeros(1), np.zeros(1)))
        )
        assert not batched.config_eligible(FdetConfig(engine=PeelEngine.REFERENCE))

    def test_env_switch(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_BATCH", raising=False)
        assert batched.resolve_native_batch(None) is True
        monkeypatch.setenv("REPRO_NATIVE_BATCH", "0")
        assert batched.resolve_native_batch(None) is False
        assert batched.resolve_native_batch(True) is True  # explicit wins
        monkeypatch.setenv("REPRO_NATIVE_BATCH", "1")
        assert batched.resolve_native_batch(False) is False


class TestSamplerFamilyParity:
    """fit() with the batched backend vs per-member reference fits, per family."""

    @pytest.mark.parametrize("family", sorted(SAMPLERS))
    def test_fit_parity(self, weighted_graph, family):
        batch, reference = fit_pair(
            weighted_graph,
            sampler=SAMPLERS[family](),
            n_samples=8,
            fdet=FdetConfig(max_blocks=8),
        )
        assert_tables_equal(batch.vote_table, reference.vote_table)
        for left, right in zip(batch.sample_detections, reference.sample_detections):
            assert_same_detection(left, right)

    @pytest.mark.parametrize("policy", WeightPolicy.ALL)
    def test_weight_policy_parity(self, plain_graph, policy):
        batch, reference = fit_pair(
            plain_graph,
            sampler=RandomEdgeSampler(0.3),
            n_samples=6,
            fdet=FdetConfig(max_blocks=8, weight_policy=policy),
        )
        assert_tables_equal(batch.vote_table, reference.vote_table)

    def test_track_appearances_parity(self, weighted_graph):
        batch, reference = fit_pair(
            weighted_graph,
            sampler=RandomEdgeSampler(0.3),
            n_samples=6,
            track_appearances=True,
        )
        assert_tables_equal(batch.vote_table, reference.vote_table)
        assert dict(batch.vote_table.user_appearances) == dict(
            reference.vote_table.user_appearances
        )
        assert dict(batch.vote_table.merchant_appearances) == dict(
            reference.vote_table.merchant_appearances
        )


class TestWindowedParity:
    """Rolling-window fits: liveness masks AND-ed into member edge sets."""

    def _stream(self, detector, graph):
        rng = np.random.default_rng(41)
        for step in range(4):
            users = rng.integers(0, 150, 25)
            merchants = rng.integers(0, 70, 25)
            if step == 2:
                detector.update(
                    users,
                    merchants,
                    remove_users=graph.edge_users[:2],
                    remove_merchants=graph.edge_merchants[:2],
                    timestamp=float(step + 1),
                )
            else:
                detector.update(users, merchants, timestamp=float(step + 1))

    def _config(self, native_batch):
        """Batched kernel, or each member alone on the reference engine."""
        fdet = FdetConfig(max_blocks=8)
        return EnsemFDetConfig(
            sampler=StableEdgeSampler(0.3, stripe=64),
            n_samples=8,
            fdet=fdet if native_batch else oracle(fdet),
            seed=23,
            native_batch=native_batch,
        )

    def test_incremental_and_cold_window_parity(self):
        graph = uniform_bipartite(150, 70, 1400, rng=3)
        detectors = {}
        for native_batch in (True, False):
            detector = IncrementalEnsemFDet(
                self._config(native_batch), window=WindowConfig(max_batches=3)
            )
            detector.fit(graph, timestamp=0.0)
            self._stream(detector, graph)
            detectors[native_batch] = detector
        warm_batch, warm_reference = detectors[True], detectors[False]
        # the 3-batch window really expired edges — the liveness overlay is live
        assert warm_batch.window().watermark > warm_batch.window().n_live
        assert_tables_equal(warm_batch.vote_table, warm_reference.vote_table)
        # cold window fits, both backends, against the warm reference
        for native_batch in (True, False):
            cold = EnsemFDet(self._config(native_batch)).fit_window(
                warm_batch.window(), track_members=True
            )
            assert_tables_equal(cold.vote_table, warm_reference.vote_table)

    def test_append_only_window_parity(self):
        graph = uniform_bipartite(120, 60, 1000, rng=8)
        detectors = {}
        for native_batch in (True, False):
            detector = IncrementalEnsemFDet(self._config(native_batch))
            detector.fit(graph, timestamp=0.0)
            rng = np.random.default_rng(17)
            detector.update(rng.integers(0, 120, 30), rng.integers(0, 60, 30))
            detectors[native_batch] = detector
        assert_tables_equal(detectors[True].vote_table, detectors[False].vote_table)


class TestBackendMatrix:
    """The batched backend composes with every executor and transport."""

    @pytest.mark.parametrize(
        "executor,shared_memory",
        [
            ("serial", False),
            ("thread", False),
            ("process", True),
            ("process", False),
        ],
    )
    def test_backend_parity(self, weighted_graph, executor, shared_memory):
        reference = EnsemFDet(
            EnsemFDetConfig(
                sampler=RandomEdgeSampler(0.3),
                n_samples=6,
                fdet=oracle(FdetConfig()),
                seed=11,
                native_batch=False,
            )
        ).fit(weighted_graph)
        config = EnsemFDetConfig(
            sampler=RandomEdgeSampler(0.3),
            n_samples=6,
            seed=11,
            executor=executor,
            n_workers=2,
            shared_memory=shared_memory,
            native_batch=True,
        )
        result = EnsemFDet(config).fit(weighted_graph)
        assert_tables_equal(result.vote_table, reference.vote_table)
        for left, right in zip(result.sample_detections, reference.sample_detections):
            assert_same_detection(left, right)

    def test_detect_on_plans_parity(self, plain_graph):
        config = FdetConfig(max_blocks=6)
        plans = RandomEdgeSampler(0.4).plan_many(plain_graph, 5, resolve_rng(2))
        batch = detect_on_plans(plain_graph, plans, config, native_batch=True)
        reference = detect_on_plans(plain_graph, plans, oracle(config), native_batch=False)
        for left, right in zip(batch, reference):
            assert_same_detection(left, right)


class TestNativeVoteMerge:
    @staticmethod
    def _label_tally(detections):
        """The reference: one Counter update per member's detected labels."""
        users, merchants = Counter(), Counter()
        for d in detections:
            users.update(d.result.detected_users().tolist())
            merchants.update(d.result.detected_merchants().tolist())
        return users, merchants

    @staticmethod
    def _mapping(counts, labels):
        hit = np.flatnonzero(counts)
        return dict(zip(labels[hit].tolist(), counts[hit].tolist()))

    def _assert_matches_label_tally(self, detections, graph):
        counters = batched.vote_counters(detections, graph)
        users, merchants = self._label_tally(detections)
        assert counters[0].dtype == np.int32
        assert self._mapping(counters[0], graph.user_labels) == dict(users)
        assert self._mapping(counters[1], graph.merchant_labels) == dict(merchants)

    def test_counters_match_python_tally(self, weighted_graph):
        config = EnsemFDetConfig(
            sampler=RandomEdgeSampler(0.35), n_samples=7, seed=5, native_batch=True
        )
        result = EnsemFDet(config).fit(weighted_graph)
        assert all(d.detected_user_indices is not None for d in result.sample_detections)
        self._assert_matches_label_tally(result.sample_detections, weighted_graph)

    def test_tallies_detections_without_indices(self, weighted_graph):
        config = EnsemFDetConfig(
            sampler=RandomEdgeSampler(0.35), n_samples=4, seed=5, native_batch=False
        )
        result = EnsemFDet(config).fit(weighted_graph)
        assert all(d.detected_user_indices is None for d in result.sample_detections)
        self._assert_matches_label_tally(result.sample_detections, weighted_graph)

    def test_repeated_labels_vote_once_per_member(self):
        # every label names two nodes: a member detecting both still
        # votes that label once, exactly like the label tally
        base = uniform_bipartite(60, 30, 500, rng=4)
        graph = BipartiteGraph(
            base.n_users,
            base.n_merchants,
            base.edge_users,
            base.edge_merchants,
            user_labels=np.arange(base.n_users) // 2,
            merchant_labels=np.arange(base.n_merchants) // 2,
        )
        config = EnsemFDetConfig(
            sampler=RandomEdgeSampler(0.5), n_samples=6, seed=1, native_batch=True
        )
        result = EnsemFDet(config).fit(graph)
        self._assert_matches_label_tally(result.sample_detections, graph)
        users, merchants = self._label_tally(result.sample_detections)
        assert result.vote_table.user_votes == users
        assert result.vote_table.merchant_votes == merchants
