"""Windowed incremental detection: bitwise parity with cold window fits.

The windowed :class:`IncrementalEnsemFDet` must stay bit-identical to a
cold :meth:`EnsemFDet.fit_window` on the live window after any mix of
appends, deletion deltas and expiry — across every executor backend, over
the store-file and the pickled-store transport, and for both sampler families
(stripe-hash, which is id-keyed, and the rest, which fit the live graph).
Also covers the windowed DetectionState v3 save/load round trip.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import uniform_bipartite
from repro.ensemble import (
    EnsemFDet,
    EnsemFDetConfig,
    IncrementalEnsemFDet,
    load_detection_state,
)
from repro.errors import DetectionError
from repro.fdet import FdetConfig
from repro.graph import WindowConfig
from repro.parallel import FaultTolerance, ReusablePool
from repro.sampling import RandomEdgeSampler, StableEdgeSampler


def make_config(**overrides):
    defaults = dict(
        sampler=StableEdgeSampler(0.3, stripe=64),
        n_samples=8,
        fdet=FdetConfig(max_blocks=8),
        executor="serial",
        seed=23,
    )
    defaults.update(overrides)
    return EnsemFDetConfig(**defaults)


@pytest.fixture
def graph():
    return uniform_bipartite(150, 70, 1400, rng=3)


def _stream(detector, graph, n_updates=4, retract_at=2):
    """Drive appends, one deletion delta, and (window permitting) expiry."""
    rng = np.random.default_rng(41)
    for step in range(n_updates):
        users = rng.integers(0, 150, 25)
        merchants = rng.integers(0, 70, 25)
        if step == retract_at:
            # retract two live background pairs alongside the append
            detector.update(
                users,
                merchants,
                remove_users=graph.edge_users[:2],
                remove_merchants=graph.edge_merchants[:2],
                timestamp=float(step + 1),
            )
        else:
            detector.update(users, merchants, timestamp=float(step + 1))


def assert_matches_cold_window_fit(detector, config):
    cold = EnsemFDet(config).fit_window(detector.window(), track_members=True)
    assert cold.vote_table.user_votes == detector.vote_table.user_votes
    assert cold.vote_table.merchant_votes == detector.vote_table.merchant_votes
    for threshold in range(1, config.n_samples + 1):
        warm = detector.detect(threshold)
        fresh = cold.detect(threshold)
        assert np.array_equal(warm.user_labels, fresh.user_labels)
        assert np.array_equal(warm.merchant_labels, fresh.merchant_labels)


class TestWindowedParityMatrix:
    @pytest.mark.parametrize(
        "executor,transport",
        [
            ("serial", "local"),
            ("process", "spill"),
            ("process", "pickle"),
        ],
    )
    def test_update_matches_cold_window_fit(self, graph, executor, transport, force_transport):
        config = make_config(executor=executor, tolerance=FaultTolerance(degrade=False))
        force_transport(transport)
        detector = IncrementalEnsemFDet(config, window=WindowConfig(max_batches=3))
        detector.fit(graph, timestamp=0.0)
        _stream(detector, graph)
        # the 3-batch window over 5 batches has really expired something
        assert detector.window().watermark > detector.window().n_live
        assert_matches_cold_window_fit(detector, config)

    @pytest.mark.parametrize("transport", ["spill", "pickle"])
    def test_warm_pool_updates_match_cold_window_fit(self, graph, transport, force_transport):
        config = make_config(executor="process", tolerance=FaultTolerance(degrade=False))
        force_transport(transport)
        with ReusablePool(n_workers=2) as pool:
            detector = IncrementalEnsemFDet(config, pool=pool, window=WindowConfig(max_batches=3))
            detector.fit(graph, timestamp=0.0)
            _stream(detector, graph)
            assert pool.restarts == 0  # every update reused the same workers
        assert detector.window().watermark > detector.window().n_live
        assert_matches_cold_window_fit(detector, config)

    def test_horizon_window_matches_cold_fit(self, graph):
        config = make_config()
        detector = IncrementalEnsemFDet(
            config, window=WindowConfig(horizon=2.5)
        )
        detector.fit(graph, timestamp=0.0)
        _stream(detector, graph)
        assert detector.window().watermark > detector.window().n_live
        assert_matches_cold_window_fit(detector, config)

    def test_deletion_only_delta_matches_cold_fit(self, graph):
        config = make_config()
        detector = IncrementalEnsemFDet(config, window=WindowConfig(max_batches=8))
        detector.fit(graph, timestamp=0.0)
        report = detector.update(
            remove_users=graph.edge_users[:5],
            remove_merchants=graph.edge_merchants[:5],
            timestamp=1.0,
        )
        assert report.n_new_edges == 0
        assert report.n_removed_edges == 5
        assert report.n_refreshed > 0
        assert_matches_cold_window_fit(detector, config)


class TestSamplerFamilies:
    def test_fit_window_without_stripes_fits_the_live_graph(self, graph):
        """Non-stripe samplers have no id-keyed structure: the window fit
        is exactly a cold fit on the compacted live graph."""
        config = make_config(sampler=RandomEdgeSampler(0.3))
        detector = IncrementalEnsemFDet(make_config(), window=WindowConfig(max_batches=3))
        detector.fit(graph, timestamp=0.0)
        _stream(detector, graph)
        window = detector.window()
        via_window = EnsemFDet(config).fit_window(window)
        via_live = EnsemFDet(config).fit(window.live_graph())
        assert via_window.vote_table.user_votes == via_live.vote_table.user_votes
        assert (
            via_window.vote_table.merchant_votes
            == via_live.vote_table.merchant_votes
        )


class TestAppendOnlyGuards:
    def test_window_accessor_requires_windowed_detector(self, graph):
        detector = IncrementalEnsemFDet(make_config())
        detector.fit(graph)
        with pytest.raises(DetectionError, match="append-only"):
            detector.window()

    def test_deletions_require_windowed_detector(self, graph):
        detector = IncrementalEnsemFDet(make_config())
        detector.fit(graph)
        with pytest.raises(DetectionError, match="windowed"):
            detector.update(
                remove_users=graph.edge_users[:1],
                remove_merchants=graph.edge_merchants[:1],
            )

    def test_timestamps_require_windowed_detector(self, graph):
        detector = IncrementalEnsemFDet(make_config())
        detector.fit(graph)
        with pytest.raises(DetectionError, match="windowed"):
            detector.update(np.array([0]), np.array([0]), timestamp=1.0)


class TestWindowedPersistence:
    def test_v3_state_round_trips_the_window(self, graph, tmp_path):
        config = make_config()
        detector = IncrementalEnsemFDet(config, window=WindowConfig(max_batches=3))
        detector.fit(graph, timestamp=0.0)
        _stream(detector, graph)
        path = tmp_path / "state.npz"
        detector.save(path)

        state = load_detection_state(path)
        assert state.window is not None
        assert state.window["config"]["max_batches"] == 3
        assert state.window["watermark"] == detector.window().watermark
        assert state.edge_ids is not None

        restored = IncrementalEnsemFDet.load(path)
        assert restored.window_config == detector.window_config
        original = detector.window()
        reloaded = restored.window()
        assert reloaded.watermark == original.watermark
        assert reloaded.n_live == original.n_live
        assert restored.vote_table.user_votes == detector.vote_table.user_votes

    def test_reloaded_detector_keeps_bitwise_parity(self, graph, tmp_path):
        config = make_config()
        detector = IncrementalEnsemFDet(config, window=WindowConfig(max_batches=3))
        detector.fit(graph, timestamp=0.0)
        _stream(detector, graph)
        path = tmp_path / "state.npz"
        detector.save(path)
        restored = IncrementalEnsemFDet.load(path)

        rng = np.random.default_rng(77)
        users, merchants = rng.integers(0, 150, 30), rng.integers(0, 70, 30)
        # retract pairs that are still live (the background expired long ago)
        live = detector.window().live_graph()
        remove_users = live.user_labels[live.edge_users[:3]]
        remove_merchants = live.merchant_labels[live.edge_merchants[:3]]
        for det in (detector, restored):
            det.update(
                users,
                merchants,
                remove_users=remove_users,
                remove_merchants=remove_merchants,
                timestamp=9.0,
            )
        assert restored.vote_table.user_votes == detector.vote_table.user_votes
        assert (
            restored.vote_table.merchant_votes
            == detector.vote_table.merchant_votes
        )
        assert_matches_cold_window_fit(restored, config)

    def test_append_only_state_stays_v2_shaped(self, graph, tmp_path):
        """An unwindowed detector's archive carries no window arrays."""
        detector = IncrementalEnsemFDet(make_config())
        detector.fit(graph)
        path = tmp_path / "state.npz"
        detector.save(path)
        state = load_detection_state(path)
        assert state.window is None
        assert state.edge_ids is None
