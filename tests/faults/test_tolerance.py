"""Fault-tolerant fan-out: retry, degradation, quorum — and bitwise recovery."""

from __future__ import annotations

import pytest

from repro.datasets import uniform_bipartite
from repro.errors import InjectedFault, QuorumError, WorkerCrashError
from repro.faults import arm, disarm
from repro.faults.chaos import leaked_spills
from repro.ensemble import EnsemFDet, EnsemFDetConfig, detect_on_plans
from repro.fdet import FdetConfig
from repro.parallel import ExecutorMode, FaultTolerance, ReusablePool
from repro.sampling import RandomEdgeSampler, resolve_rng


@pytest.fixture(autouse=True)
def _clean_faults():
    disarm()
    yield
    disarm()


@pytest.fixture(scope="module")
def graph():
    return uniform_bipartite(60, 30, 300, rng=0)


def _config(executor="serial", n_workers=None, **tolerance_kwargs):
    return EnsemFDetConfig(
        sampler=RandomEdgeSampler(0.4),
        n_samples=6,
        fdet=FdetConfig(max_blocks=6),
        executor=executor,
        n_workers=n_workers,
        seed=3,
        tolerance=FaultTolerance(**tolerance_kwargs),
    )


def _tables_equal(a, b) -> bool:
    return (
        a.n_samples == b.n_samples
        and dict(a.user_votes) == dict(b.user_votes)
        and dict(a.merchant_votes) == dict(b.merchant_votes)
    )


class TestToleranceValidation:
    def test_rejects_bad_values(self):
        from repro.errors import ReproError

        for kwargs in (
            {"member_timeout": 0},
            {"max_retries": -1},
            {"backoff_seconds": -0.1},
            {"min_quorum": 0.0},
            {"min_quorum": 1.5},
        ):
            with pytest.raises(ReproError):
                FaultTolerance(**kwargs)

    def test_required_survivors(self):
        assert FaultTolerance(min_quorum=0.5).required_survivors(6) == 3
        assert FaultTolerance(min_quorum=0.5).required_survivors(7) == 4
        assert FaultTolerance(min_quorum=0.01).required_survivors(10) == 1
        assert FaultTolerance.strict().required_survivors(8) == 8

    def test_backoff_doubles_deterministically(self):
        tolerance = FaultTolerance(backoff_seconds=0.5)
        assert tolerance.backoff_for(0) == 0.0
        assert tolerance.backoff_for(1) == 0.5
        assert tolerance.backoff_for(2) == 1.0
        assert FaultTolerance().backoff_for(3) == 0.0

    def test_dict_roundtrip(self):
        tolerance = FaultTolerance(member_timeout=2.5, max_retries=1, min_quorum=0.75)
        assert FaultTolerance.from_dict(tolerance.as_dict()) == tolerance
        assert FaultTolerance.from_dict(None) == FaultTolerance()


class TestTransientRecovery:
    def test_raise_fault_recovers_bitwise_identical(self, graph):
        reference = EnsemFDet(_config()).fit(graph)
        arm("raise:point=member.detect,index=2")
        result = EnsemFDet(_config()).fit(graph)
        assert not result.failed_members
        assert _tables_equal(result.vote_table, reference.vote_table)
        # the fault is visible in the retry log, not the result
        assert result.retry_log[0]["failed"] == [2]
        assert result.retry_log[1]["members"] == [2]
        assert result.retry_log[1]["failed"] == []

    def test_process_worker_raise_fails_only_that_member(self, graph):
        reference = EnsemFDet(_config()).fit(graph)
        arm("raise:point=member.detect,index=2")
        result = EnsemFDet(_config(executor="process", n_workers=2)).fit(graph)
        assert _tables_equal(result.vote_table, reference.vote_table)
        # member 2's chunk-mates in the same worker still detect in round 0
        assert result.retry_log[0]["failed"] == [2]
        assert result.retry_log[1]["members"] == [2]

    def test_retry_log_is_deterministic(self, graph):
        plan = "raise:point=member.detect,index=1;raise:point=member.detect,index=4"
        logs, tables = [], []
        for _ in range(2):
            arm(plan)
            result = EnsemFDet(_config()).fit(graph)
            logs.append(result.retry_log)
            tables.append(result.vote_table)
        assert logs[0] == logs[1]
        assert _tables_equal(tables[0], tables[1])

    def test_strict_tolerance_raises_original_error(self, graph):
        arm("raise:point=member.detect,index=0")
        with pytest.raises(InjectedFault):
            EnsemFDet(
                EnsemFDetConfig(
                    sampler=RandomEdgeSampler(0.4),
                    n_samples=6,
                    seed=3,
                    tolerance=FaultTolerance.strict(),
                )
            ).fit(graph)

    def test_fit_identical_under_every_backend_with_faults(self, graph):
        reference = EnsemFDet(_config()).fit(graph)
        for executor in ExecutorMode.ALL:
            arm("raise:point=member.detect,index=0;raise:point=member.detect,index=5")
            result = EnsemFDet(_config(executor=executor, n_workers=2)).fit(graph)
            assert _tables_equal(result.vote_table, reference.vote_table), executor


def _always_failing(*indices: int) -> str:
    return ";".join(
        f"raise:point=member.detect,index={i},attempt=-1,times=-1" for i in indices
    )


class TestDegradationLadder:
    """Attempt 0 runs the configured backend; with ``degrade`` every retry
    runs serially in the parent, without it every retry stays put — except
    that a round of one member never pays for a pool."""

    @pytest.mark.parametrize(
        "executor,failing,degrade,backends",
        [
            ("process", (1, 4), True, ["process", "serial", "serial"]),
            ("process", (1, 4), False, ["process", "process", "process"]),
            ("process", (1,), False, ["process", "serial", "serial"]),
            ("serial", (1, 4), True, ["serial", "serial", "serial"]),
        ],
        ids=["degrade", "no_degrade", "no_degrade_one_member", "serial_degrade"],
    )
    def test_retry_log_backends(self, graph, executor, failing, degrade, backends):
        arm(_always_failing(*failing))
        config = _config(executor=executor, n_workers=2, degrade=degrade)
        result = EnsemFDet(config).fit(graph)
        assert [entry["backend"] for entry in result.retry_log] == backends
        assert [entry["failed"] for entry in result.retry_log] == [list(failing)] * 3
        assert [f.index for f in result.failed_members] == list(failing)
        assert leaked_spills() == []

    def test_transport_failure_retries_serially(self, graph):
        """With ``degrade`` a failed store-file map is retried in the parent;
        the pickled store only travels on a non-degrading retry."""
        reference = EnsemFDet(_config()).fit(graph)
        arm("raise:point=mmap.open,times=-1")
        result = EnsemFDet(_config(executor="process", n_workers=2)).fit(graph)
        log = [(entry["backend"], entry["transport"]) for entry in result.retry_log]
        assert log == [("process", "spill"), ("serial", "local")]
        assert set(result.retry_log[0]["kinds"].values()) == {"transport"}
        assert _tables_equal(result.vote_table, reference.vote_table)
        assert leaked_spills() == []


class TestQuorumDegradation:
    def test_permanent_failure_degrades_with_metadata(self, graph):
        arm("raise:point=member.detect,index=0,attempt=-1,times=-1")
        result = EnsemFDet(_config()).fit(graph)
        assert [f.index for f in result.failed_members] == [0]
        assert result.failed_members[0].kind == "error"
        assert result.failed_members[0].attempts == 3  # 1 try + 2 retries
        assert result.n_samples == 5
        assert result.effective_quorum == pytest.approx(5 / 6)

    def test_threshold_rescaled_to_survivors(self, graph):
        arm("raise:point=member.detect,index=0,attempt=-1,times=-1")
        result = EnsemFDet(_config()).fit(graph)
        # T=6 of N=6 becomes ceil(6·5/6)=5 of the 5 survivors
        assert result.effective_threshold(6) == 5
        assert result.effective_threshold(1) == 1
        detection = result.detect(6)
        assert detection.n_users >= 0  # threshold 6 > survivors would match nothing

    def test_below_quorum_raises(self, graph):
        arm(_always_failing(*range(4)))
        with pytest.raises(QuorumError, match="2/6"):
            EnsemFDet(_config()).fit(graph)

    def test_min_quorum_one_rejects_any_loss(self, graph):
        arm("raise:point=member.detect,index=3,attempt=-1,times=-1")
        with pytest.raises(InjectedFault):
            EnsemFDet(_config(min_quorum=1.0)).fit(graph)


class TestProcessBackendFaults:
    def test_worker_crash_recovers_bitwise_identical(self, graph):
        reference = EnsemFDet(_config()).fit(graph)
        before = leaked_spills()
        arm("crash:point=member.detect,index=1")
        result = EnsemFDet(_config(executor="process", n_workers=2)).fit(graph)
        assert not result.failed_members
        assert _tables_equal(result.vote_table, reference.vote_table)
        kinds = result.retry_log[0]["kinds"].values()
        assert "crash" in kinds
        assert leaked_spills() == before

    def test_strict_worker_crash_raises_typed_error_and_leaks_nothing(self, graph):
        before = leaked_spills()
        arm("crash:point=member.detect,index=0")
        rng = resolve_rng(3)
        config = _config(executor="process", n_workers=2)
        plans = config.sampler.plan_many(graph, config.n_samples, rng)
        with pytest.raises(WorkerCrashError) as excinfo:
            detect_on_plans(
                graph,
                plans,
                config.fdet,
                mode="process",
                n_workers=2,
                tolerance=FaultTolerance.strict(),
            )
        assert excinfo.value.member_indices  # failed members identified
        assert leaked_spills() == before

    def test_hung_member_times_out_then_recovers(self, graph):
        reference = EnsemFDet(_config()).fit(graph)
        arm("hang:point=member.detect,index=1,seconds=20")
        config = EnsemFDetConfig(
            sampler=RandomEdgeSampler(0.4),
            n_samples=2,
            fdet=FdetConfig(max_blocks=6),
            executor="process",
            n_workers=2,
            seed=3,
            tolerance=FaultTolerance(member_timeout=1.5),
        )
        result = EnsemFDet(config).fit(graph)
        assert not result.failed_members
        assert result.retry_log[0]["kinds"]["1"] == "timeout"
        assert result.vote_table.n_samples == 2
        assert reference is not None

    @pytest.mark.parametrize("pooled", [True, False], ids=["reusable_pool", "one_shot_pool"])
    def test_mmap_open_failure_falls_back_to_pickled_store(self, graph, pooled):
        # workers map the spill at chunk time, on warm and one-shot pools
        # alike, so the injected failure surfaces as kind "transport", not
        # a broken pool — and the next attempt must switch to the pickled
        # store
        reference = EnsemFDet(_config()).fit(graph)
        arm("raise:point=mmap.open")
        config = _config(executor="process", n_workers=2, degrade=False)
        if pooled:
            with ReusablePool(n_workers=2) as pool:
                result = EnsemFDet(config, pool=pool).fit(graph)
        else:
            result = EnsemFDet(config).fit(graph)
        assert not result.failed_members
        assert _tables_equal(result.vote_table, reference.vote_table)
        assert result.retry_log[0]["transport"] == "spill"
        assert "transport" in result.retry_log[0]["kinds"].values()
        assert result.retry_log[1]["transport"] == "pickle"
        assert "shared_memory" not in result.retry_log[0]
        assert leaked_spills() == []
