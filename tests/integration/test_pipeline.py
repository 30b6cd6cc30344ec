"""End-to-end integration tests across the whole stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Blacklist,
    EnsemFDet,
    EnsemFDetConfig,
    FraudarDetector,
    RandomEdgeSampler,
    best_f1,
    ensemble_threshold_curve,
    fraudar_block_curve,
    make_jd_dataset,
)
from repro.fdet import FdetConfig
from repro.graph import GraphBuilder, load_edge_list, save_edge_list


class TestToyPipeline:
    def test_ensemble_beats_chance_and_tracks_fraudar(self, toy):
        config = EnsemFDetConfig(
            sampler=RandomEdgeSampler(0.4),
            n_samples=24,
            fdet=FdetConfig(max_blocks=8),
            seed=0,
            executor="serial",
        )
        ensemble = EnsemFDet(config).fit(toy.graph)
        ensemble_best = best_f1(ensemble_threshold_curve(ensemble, toy.blacklist))

        fraudar = FraudarDetector(n_blocks=8).detect(toy.graph)
        fraudar_best = best_f1(fraudar_block_curve(fraudar, toy.blacklist))

        assert ensemble_best.f1 > 0.5
        assert ensemble_best.f1 > 0.6 * fraudar_best.f1  # parity band

    def test_smoothness_advantage(self, toy):
        """EnsemFDet's operating curve is finer-grained than Fraudar's."""
        config = EnsemFDetConfig(
            sampler=RandomEdgeSampler(0.4), n_samples=24,
            fdet=FdetConfig(max_blocks=8), seed=0, executor="serial",
        )
        ensemble_curve = ensemble_threshold_curve(
            EnsemFDet(config).fit(toy.graph), toy.blacklist
        )
        fraudar_curve = fraudar_block_curve(
            FraudarDetector(n_blocks=8).detect(toy.graph), toy.blacklist
        )
        assert len(ensemble_curve) > len(fraudar_curve)


class TestJdPipeline:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_jd_dataset(1, scale=0.15, seed=0)

    def test_detection_quality_band(self, dataset):
        config = EnsemFDetConfig(
            sampler=RandomEdgeSampler(0.3),
            n_samples=12,
            fdet=FdetConfig(max_blocks=10),
            seed=0,
            executor="serial",
        )
        result = EnsemFDet(config).fit(dataset.graph)
        best = best_f1(ensemble_threshold_curve(result, dataset.blacklist))
        # noisy labels cap F1 well below 1; random detection sits near 0.05
        assert 0.15 <= best.f1 <= 0.95

    def test_serial_and_process_agree(self, dataset):
        base = dict(
            sampler=RandomEdgeSampler(0.3),
            n_samples=6,
            fdet=FdetConfig(max_blocks=6),
            seed=3,
        )
        serial = EnsemFDet(EnsemFDetConfig(**base, executor="serial")).fit(dataset.graph)
        process = EnsemFDet(EnsemFDetConfig(**base, executor="process")).fit(dataset.graph)
        assert serial.vote_table.user_votes == process.vote_table.user_votes


class TestFileRoundtripPipeline:
    def test_build_save_load_detect(self, tmp_path, toy):
        """Transaction log -> builder -> TSV -> load -> detect."""
        builder = GraphBuilder()
        for u, v in toy.graph.iter_edges():
            builder.add_edge(f"pin-{u}", f"shop-{v}")
        built = builder.build()
        assert built.graph.n_edges == toy.graph.n_edges

        path = tmp_path / "transactions.tsv"
        save_edge_list(built.graph, path)
        loaded = load_edge_list(path)

        config = EnsemFDetConfig(
            sampler=RandomEdgeSampler(0.4), n_samples=10,
            fdet=FdetConfig(max_blocks=6), seed=0,
        )
        detection = EnsemFDet(config).fit_detect(loaded, threshold=4)
        assert detection.n_users > 0

        # detected labels round-trip to the builder's original keys
        keys = built.users_from_indices(detection.user_labels.tolist())
        assert all(key.startswith("pin-") for key in keys)


class TestBlacklistEvaluationPipeline:
    def test_noisy_blacklist_caps_precision(self, toy):
        """With heavy label noise, even a perfect detector loses precision."""
        rng = np.random.default_rng(0)
        noisy = Blacklist(toy.clean_fraud_labels.tolist()).with_noise(
            np.arange(toy.graph.n_users),
            drop_fraction=0.4,
            add_fraction=0.5,
            rng=rng,
        )
        # a perfect detector flags exactly the planted users
        from repro.metrics import detection_confusion

        confusion = detection_confusion(toy.clean_fraud_labels, noisy)
        assert confusion.precision <= 0.75
        assert confusion.recall <= 0.75
