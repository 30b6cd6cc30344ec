"""Behavioural tests for the EnsemFDet orchestrator (paper Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ensemble import (
    EnsemFDet,
    EnsemFDetConfig,
    detect_on_plans,
    plan_shards,
    run_members,
    run_sharded,
)
from repro.errors import DetectionError
from repro.fdet import Fdet, FdetConfig
from repro.parallel import ExecutorMode
from repro.sampling import OneSideNodeSampler, RandomEdgeSampler, Side, materialize_plan


def small_config(**overrides):
    defaults = dict(
        sampler=RandomEdgeSampler(0.4),
        n_samples=10,
        fdet=FdetConfig(max_blocks=6),
        seed=42,
    )
    defaults.update(overrides)
    return EnsemFDetConfig(**defaults)


class TestConfig:
    def test_invalid_n_samples(self):
        with pytest.raises(DetectionError):
            EnsemFDetConfig(n_samples=0)

    @pytest.mark.parametrize("executor", ["procss", "thread"])
    def test_unknown_executor_rejected(self, executor):
        assert ExecutorMode.ALL == ("serial", "process")
        with pytest.raises(DetectionError, match=r"expected one of \('serial', 'process'\)"):
            EnsemFDetConfig(executor=executor, n_workers=2)

    @pytest.mark.parametrize("entry", ["run_members", "detect_on_plans", "run_sharded"])
    def test_fan_out_rejects_unknown_mode(self, toy, entry):
        fan_out = {
            "run_members": run_members,
            "detect_on_plans": detect_on_plans,
            "run_sharded": lambda *args, **kwargs: run_sharded(
                *args, plan_shards(2, 2), **kwargs
            ),
        }[entry]
        plans = RandomEdgeSampler(0.3).plan_many(toy.graph, 2, rng=0)
        with pytest.raises(DetectionError, match="unknown executor 'procss'"):
            fan_out(toy.graph, plans, FdetConfig(max_blocks=2), mode="procss")

    def test_repetition_rate(self):
        config = EnsemFDetConfig(sampler=RandomEdgeSampler(0.1), n_samples=80)
        assert config.repetition_rate == pytest.approx(8.0)

    def test_defaults_match_paper(self):
        config = EnsemFDetConfig()
        assert config.n_samples == 80
        assert config.sampler.ratio == 0.1


class TestFit:
    def test_fit_produces_votes(self, toy):
        result = EnsemFDet(small_config()).fit(toy.graph)
        assert result.n_samples == 10
        assert result.vote_table.max_user_votes() >= 1
        assert len(result.sample_detections) == 10

    def test_seeded_fit_reproducible(self, toy):
        a = EnsemFDet(small_config()).fit(toy.graph)
        b = EnsemFDet(small_config()).fit(toy.graph)
        assert a.vote_table.user_votes == b.vote_table.user_votes

    def test_different_seeds_differ(self, toy):
        a = EnsemFDet(small_config(seed=1)).fit(toy.graph)
        b = EnsemFDet(small_config(seed=2)).fit(toy.graph)
        assert a.vote_table.user_votes != b.vote_table.user_votes

    def test_detect_threshold_sweep_monotone(self, toy):
        result = EnsemFDet(small_config()).fit(toy.graph)
        sizes = [result.detect(t).n_users for t in range(1, 11)]
        assert sizes == sorted(sizes, reverse=True)

    def test_sweep_thresholds_default_grid(self, toy):
        result = EnsemFDet(small_config()).fit(toy.graph)
        sweep = result.sweep_thresholds()
        assert [t for t, _ in sweep] == list(range(1, 11))

    def test_fit_detect_convenience(self, toy):
        detection = EnsemFDet(small_config()).fit_detect(toy.graph, threshold=3)
        assert detection.n_users > 0

    def test_votes_bounded_by_n_samples(self, toy):
        result = EnsemFDet(small_config()).fit(toy.graph)
        assert result.vote_table.max_user_votes() <= result.n_samples

    def test_recovers_planted_fraud_users(self, toy):
        """End-to-end quality gate on the clean-label toy dataset."""
        config = small_config(n_samples=24, sampler=RandomEdgeSampler(0.4))
        result = EnsemFDet(config).fit(toy.graph)
        truth = set(toy.clean_fraud_labels.tolist())
        best_f1 = 0.0
        for t in range(1, 25):
            detected = set(result.detect(t).user_labels.tolist())
            if not detected:
                continue
            precision = len(detected & truth) / len(detected)
            recall = len(detected & truth) / len(truth)
            if precision + recall:
                best_f1 = max(best_f1, 2 * precision * recall / (precision + recall))
        assert best_f1 >= 0.6

    def test_block_score_series_shape(self, toy):
        result = EnsemFDet(small_config()).fit(toy.graph)
        series = result.block_score_series()
        assert len(series) == result.n_samples
        for scores in series:
            assert np.all(scores >= 0)

    def test_track_appearances(self, toy):
        result = EnsemFDet(small_config(track_appearances=True)).fit(toy.graph)
        assert result.vote_table.user_appearances is not None
        # a node cannot be detected more often than it appeared
        for label, votes in result.vote_table.user_votes.items():
            assert votes <= result.vote_table.user_appearances[label]

    def test_memberships_not_kept_by_default(self, toy):
        """With track_appearances=False nothing reads the sampled label
        arrays, so the fit must not keep them alive in its result."""
        result = EnsemFDet(small_config()).fit(toy.graph)
        for detection in result.sample_detections:
            assert detection.sample_users is None
            assert detection.sample_merchants is None

    def test_memberships_kept_when_appearances_tracked(self, toy):
        result = EnsemFDet(small_config(track_appearances=True)).fit(toy.graph)
        for detection in result.sample_detections:
            assert detection.sample_users is not None
            assert detection.sample_merchants is not None

    def test_contradictory_member_tracking_rejected(self, toy):
        detector = EnsemFDet(small_config(track_appearances=True))
        with pytest.raises(DetectionError, match="track_members"):
            detector.fit(toy.graph, track_members=False)

    def test_timings_populated(self, toy):
        result = EnsemFDet(small_config()).fit(toy.graph)
        assert result.sampling_seconds >= 0
        assert result.detection_seconds > 0
        assert result.total_seconds == pytest.approx(
            result.sampling_seconds + result.detection_seconds
        )

    def test_ons_sampler_variant(self, toy):
        config = small_config(sampler=OneSideNodeSampler(0.4, Side.MERCHANT))
        result = EnsemFDet(config).fit(toy.graph)
        assert result.vote_table.max_user_votes() >= 1


class TestExecutors:
    @pytest.mark.parametrize("mode", ExecutorMode.ALL)
    def test_executors_agree(self, toy, mode):
        config = small_config(executor=mode, n_samples=6)
        result = EnsemFDet(config).fit(toy.graph)
        serial = EnsemFDet(small_config(executor=ExecutorMode.SERIAL, n_samples=6)).fit(toy.graph)
        assert result.vote_table.user_votes == serial.vote_table.user_votes

    def test_plan_order_preserved(self, toy):
        plans = RandomEdgeSampler(0.3).plan_many(toy.graph, 4, rng=0)
        config = FdetConfig(max_blocks=4)
        detections = detect_on_plans(toy.graph, plans, config, mode=ExecutorMode.SERIAL)
        assert len(detections) == len(plans)
        for plan, detection in zip(plans, detections):
            expected = Fdet(config).detect(materialize_plan(toy.graph, plan))
            assert detection.result.k_hat == expected.k_hat
            assert np.array_equal(detection.result.detected_users(), expected.detected_users())

    def test_chunked_process_matches_per_sample_detect(self, toy):
        plans = RandomEdgeSampler(0.3).plan_many(toy.graph, 7, rng=1)
        config = FdetConfig(max_blocks=4)
        chunked = detect_on_plans(
            toy.graph, plans, config, mode=ExecutorMode.PROCESS, n_workers=3
        )
        assert len(chunked) == len(plans)
        for plan, detection in zip(plans, chunked):
            sample = materialize_plan(toy.graph, plan)
            expected = Fdet(config).detect(sample)
            assert np.array_equal(detection.sample_users, sample.user_labels)
            assert np.array_equal(detection.result.detected_users(), expected.detected_users())

    def test_engine_override_matches(self, toy):
        plans = RandomEdgeSampler(0.3).plan_many(toy.graph, 3, rng=2)
        config = FdetConfig(max_blocks=4, engine="fast")
        reference = detect_on_plans(
            toy.graph, plans, config, mode=ExecutorMode.SERIAL, engine="reference"
        )
        for plan, detection in zip(plans, reference):
            fast = Fdet(config).detect(materialize_plan(toy.graph, plan))
            assert np.array_equal(detection.result.detected_users(), fast.detected_users())
            assert np.array_equal(detection.result.detected_merchants(), fast.detected_merchants())

    def test_reusable_pool_fit(self, toy):
        from repro.parallel import ReusablePool

        with ReusablePool(n_workers=2) as pool:
            config = small_config(executor=ExecutorMode.PROCESS, n_samples=6)
            pooled = EnsemFDet(config, pool=pool).fit(toy.graph)
            again = EnsemFDet(config, pool=pool).fit(toy.graph)  # warm workers reused
        serial = EnsemFDet(small_config(executor=ExecutorMode.SERIAL, n_samples=6)).fit(toy.graph)
        assert pooled.vote_table.user_votes == serial.vote_table.user_votes
        assert again.vote_table.user_votes == serial.vote_table.user_votes
