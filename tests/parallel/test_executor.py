"""Unit tests for the parallel-execution substrate."""

from __future__ import annotations

import os
import time

import pytest

from repro.errors import ReproError
from repro.parallel import (
    ExecutorMode,
    ReusablePool,
    Timer,
    default_workers,
    time_callable,
)


def square(x: int) -> int:
    return x * x


def failing(x: int) -> int:
    raise ValueError(f"boom on {x}")


class TestDefaultWorkers:
    def test_capped_by_items(self):
        assert default_workers(n_items=2) <= 2

    def test_at_least_one(self):
        assert default_workers(n_items=0) >= 1
        assert default_workers() >= 1

    def test_bounded_by_cpu(self):
        assert default_workers() <= (os.cpu_count() or 1)

    def test_env_pin(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        assert default_workers(n_items=2) == 2  # items still cap the pin

    def test_env_pin_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "-4")
        assert default_workers() == 1

    def test_env_pin_invalid_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ReproError, match="REPRO_WORKERS"):
            default_workers()

    def test_env_pin_blank_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "  ")
        assert default_workers() >= 1


class TestReusablePool:
    def test_submit_runs_on_warm_workers(self):
        with ReusablePool(n_workers=2) as pool:
            assert pool.submit(square, 4).result() == 16
            executor = pool._executor
            assert [pool.submit(square, x).result() for x in (2, 3)] == [4, 9]
            assert pool._executor is executor  # same warm workers

    def test_no_spawn_before_first_submit(self):
        pool = ReusablePool(n_workers=2)
        assert pool._executor is None
        pool.submit(square, 1).result()
        assert pool._executor is not None
        pool.close()

    def test_task_exceptions_propagate_unchanged(self):
        with ReusablePool(n_workers=1) as pool:
            with pytest.raises(ValueError, match="boom on 3"):
                pool.submit(failing, 3).result()

    def test_close_is_idempotent(self):
        pool = ReusablePool(n_workers=1)
        pool.submit(square, 1).result()
        pool.close()
        pool.close()

    def test_close_before_use_is_noop(self):
        pool = ReusablePool(n_workers=1)
        pool.close()
        pool.close()


class TestFanOutInParent:
    """Work that cannot use a pool never starts one (the members run in the
    parent and the attempt is logged as serial)."""

    @staticmethod
    def _plans(n):
        from repro.datasets import uniform_bipartite
        from repro.sampling import RandomEdgeSampler

        graph = uniform_bipartite(60, 30, 300, rng=0)
        return graph, RandomEdgeSampler(0.4).plan_many(graph, n, rng=1)

    def test_empty_plans(self):
        from repro.ensemble import run_members
        from repro.fdet import FdetConfig

        graph, _ = self._plans(1)
        run = run_members(graph, [], FdetConfig(), mode=ExecutorMode.PROCESS, n_workers=2)
        assert run.detections == [] and run.failures == () and run.retry_log == ()

    @pytest.mark.parametrize("n_plans,n_workers", [(1, 2), (3, 1)], ids=["one_plan", "one_worker"])
    def test_runs_in_parent(self, n_plans, n_workers):
        from repro.ensemble import run_members
        from repro.fdet import FdetConfig

        graph, plans = self._plans(n_plans)
        run = run_members(
            graph, plans, FdetConfig(max_blocks=4), mode=ExecutorMode.PROCESS, n_workers=n_workers
        )
        assert (run.retry_log[0]["backend"], run.retry_log[0]["transport"]) == ("serial", "local")
        assert len(run.survivors()) == n_plans


class TestReusablePoolEnsembleLifecycle:
    """The pool survives (and stays correct) across whole ensemble fits."""

    @staticmethod
    def _graph():
        from repro.graph import BipartiteGraph

        rng_local = __import__("numpy").random.default_rng(3)
        users = rng_local.integers(0, 120, size=900)
        merchants = rng_local.integers(0, 40, size=900)
        return BipartiteGraph(120, 40, users, merchants)

    @staticmethod
    def _config(**overrides):
        from repro.ensemble import EnsemFDetConfig
        from repro.fdet import FdetConfig
        from repro.sampling import RandomEdgeSampler

        defaults = dict(
            sampler=RandomEdgeSampler(0.4),
            n_samples=6,
            fdet=FdetConfig(max_blocks=4),
            executor=ExecutorMode.PROCESS,
            seed=9,
        )
        defaults.update(overrides)
        return EnsemFDetConfig(**defaults)

    @staticmethod
    def _leaked_spills():
        from repro.faults.chaos import leaked_spills

        return leaked_spills()

    def test_reused_across_multiple_fits(self):
        from repro.ensemble import EnsemFDet

        graph = self._graph()
        with ReusablePool(n_workers=2) as pool:
            detector = EnsemFDet(self._config(), pool=pool)
            first = detector.fit(graph)
            executor = pool._executor
            second = detector.fit(graph)
            assert pool._executor is executor  # same warm workers
        serial = EnsemFDet(self._config(executor=ExecutorMode.SERIAL)).fit(graph)
        assert first.vote_table.user_votes == serial.vote_table.user_votes
        assert second.vote_table.user_votes == serial.vote_table.user_votes

    def test_repro_workers_pins_pool_size(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        pool = ReusablePool()
        assert pool.n_workers == 2
        pool.close()

    def test_spill_dirs_cleaned_after_fits_and_close(self):
        from repro.ensemble import EnsemFDet

        graph = self._graph()
        pool = ReusablePool(n_workers=2)
        try:
            EnsemFDet(self._config(), pool=pool).fit(graph)
            # the per-fit spill is already removed before fit returns
            assert self._leaked_spills() == []
            EnsemFDet(self._config(seed=10), pool=pool).fit(graph)
            assert self._leaked_spills() == []
        finally:
            pool.close()
        pool.close()  # idempotent after real use
        assert self._leaked_spills() == []


class TestTiming:
    def test_timer_measures(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.009

    def test_time_callable_returns_value(self):
        timing = time_callable(square, 7)
        assert timing.value == 49
        assert timing.seconds >= 0
