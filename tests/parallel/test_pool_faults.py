"""ReusablePool failure semantics: dead workers, respawn, kill accounting,
and ensemble fits that keep a warm pool usable through member faults."""

from __future__ import annotations

import os
import signal
from concurrent.futures import BrokenExecutor
from dataclasses import replace

import pytest

from repro.datasets import uniform_bipartite
from repro.ensemble import EnsemFDet, EnsemFDetConfig, detect_on_plans
from repro.errors import InjectedFault
from repro.faults import arm, disarm
from repro.fdet import FdetConfig
from repro.parallel import FaultTolerance, ReusablePool, kill_executor_workers
from repro.sampling import RandomEdgeSampler


@pytest.fixture(autouse=True)
def _clean_faults():
    disarm()
    yield
    disarm()


def _square(x: int) -> int:
    return x * x


def _die_on_negative(x: int) -> int:
    if x < 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


class TestWorkerCrash:
    def test_dead_worker_breaks_the_pool_until_respawned(self):
        with ReusablePool(n_workers=2) as pool:
            with pytest.raises(BrokenExecutor):
                pool.submit(_die_on_negative, -2).result()
            pool.respawn()
            assert pool.restarts == 1
            assert pool._executor is None  # fresh workers on the next submit
            # the respawned pool is immediately usable
            assert [pool.submit(_square, x).result() for x in (1, 2, 3)] == [1, 4, 9]

    def test_respawn_before_use_is_noop(self):
        pool = ReusablePool(n_workers=2)
        pool.respawn()
        assert pool.restarts == 0
        assert pool.submit(_square, 3).result() == 9
        pool.close()


class TestKillWorkers:
    def test_unspawned_pool_kills_nothing(self):
        pool = ReusablePool(n_workers=2)
        assert pool.kill_workers() == 0

    def test_kill_workers_counts_live_processes(self):
        with ReusablePool(n_workers=2) as pool:
            assert [pool.submit(_square, x).result() for x in (1, 2, 3, 4)] == [1, 4, 9, 16]
            killed = pool.kill_workers()
            assert 1 <= killed <= 2
            pool.respawn()
            assert pool.submit(_square, 5).result() == 25

    def test_kill_executor_workers_counts_processes(self):
        with ReusablePool(n_workers=2) as pool:
            pool.submit(_square, 1).result()
            killed = kill_executor_workers(pool._executor)
            assert killed >= 1
            pool.respawn()
            assert pool.submit(_square, 5).result() == 25


@pytest.fixture(scope="module")
def graph():
    return uniform_bipartite(60, 30, 300, rng=0)


def _config(**overrides):
    defaults = dict(
        sampler=RandomEdgeSampler(0.4),
        n_samples=6,
        fdet=FdetConfig(max_blocks=4),
        executor="process",
        seed=3,
    )
    defaults.update(overrides)
    return EnsemFDetConfig(**defaults)


def _votes(result):
    return result.vote_table.user_votes, result.vote_table.merchant_votes


class TestWarmPoolFits:
    def test_member_errors_propagate_unchanged(self, graph):
        config = _config()
        plans = config.sampler.plan_many(graph, config.n_samples, rng=1)
        arm("raise:point=member.detect,index=3")
        with ReusablePool(n_workers=2) as pool:
            with pytest.raises(InjectedFault, match="member.detect"):
                detect_on_plans(graph, plans, config.fdet, mode="process", pool=pool)
            assert pool.restarts == 0  # a member's own error leaves the workers alone

    def test_worker_crash_respawns_and_recovers(self, graph):
        reference = EnsemFDet(_config(executor="serial")).fit(graph)
        arm("crash:point=member.detect,index=2")
        with ReusablePool(n_workers=2) as pool:
            detector = EnsemFDet(_config(), pool=pool)
            recovered = detector.fit(graph)
            assert pool.restarts == 1
            assert "crash" in recovered.retry_log[0]["kinds"].values()
            disarm()
            again = detector.fit(graph)  # the respawned workers serve the next fit
            assert pool.restarts == 1
            assert [entry["backend"] for entry in again.retry_log] == ["process"]
        assert _votes(recovered) == _votes(reference) == _votes(again)

    def test_hung_worker_killed_and_pool_respawned(self, graph):
        config = _config(n_samples=2, tolerance=FaultTolerance(member_timeout=1.5))
        reference = EnsemFDet(replace(config, executor="serial")).fit(graph)
        arm("hang:point=member.detect,index=1,seconds=20")
        with ReusablePool(n_workers=2) as pool:
            result = EnsemFDet(config, pool=pool).fit(graph)
            assert pool.restarts == 1
        assert result.retry_log[0]["kinds"]["1"] == "timeout"
        assert not result.failed_members
        assert _votes(result) == _votes(reference)
