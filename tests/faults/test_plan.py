"""Fault-plan grammar and injection-runtime semantics."""

from __future__ import annotations

import pytest

from repro.errors import InjectedFault, ReproError
from repro.faults import (
    ENV_VAR,
    FaultKind,
    FaultPlan,
    FaultSpec,
    arm,
    arm_from_env,
    armed_plan,
    disarm,
    fault_point,
    fired_log,
)


@pytest.fixture(autouse=True)
def _clean_faults():
    disarm()
    yield
    disarm()


class TestSpecGrammar:
    def test_parse_full_spec(self):
        spec = FaultSpec.parse(
            "raise:point=member.detect,index=3,attempt=-1,at=2,times=5"
        )
        assert spec.kind == FaultKind.RAISE
        assert spec.point == "member.detect"
        assert spec.index == 3
        assert spec.attempt == -1
        assert spec.at == 2
        assert spec.times == 5

    def test_defaults(self):
        spec = FaultSpec.parse("crash:point=state.write")
        assert spec.attempt == 0  # first try only: retries recover
        assert spec.times == 1
        assert spec.index is None
        assert spec.stage is None

    def test_roundtrip_through_serialise(self):
        plans = [
            "raise:point=member.detect,index=1",
            "crash:point=state.write,stage=backup_done",
            "hang:point=member.detect,index=0,seconds=2.5",
            "corrupt:point=state.write,stage=committed,offset=17",
        ]
        plan = FaultPlan.parse(";".join(plans))
        assert FaultPlan.parse(plan.serialise()) == plan
        assert len(plan.specs) == 4

    @pytest.mark.parametrize(
        "bad",
        [
            "explode:point=x",  # unknown kind
            "raise:",  # missing point
            "raise:point=x,nonsense=1",  # unknown parameter
            "raise:point=x,index=ten",  # bad int
            "raise:point=x,index=1,index=2",  # duplicate
            "raise:point=x,at=-1",  # negative ordinal
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ReproError):
            FaultPlan.parse(bad)

    def test_empty_segments_skipped(self):
        plan = FaultPlan.parse(";;raise:point=x;;")
        assert len(plan.specs) == 1

    def test_matching_rules(self):
        spec = FaultSpec.parse("raise:point=member.detect,index=2")
        assert spec.matches("member.detect", {"index": 2, "attempt": 0})
        assert not spec.matches("member.detect", {"index": 1, "attempt": 0})
        assert not spec.matches("member.detect", {"index": 2, "attempt": 1})
        assert not spec.matches("mmap.open", {"index": 2})
        every = FaultSpec.parse("raise:point=member.detect,index=2,attempt=-1")
        assert every.matches("member.detect", {"index": 2, "attempt": 4})


class TestInjectionRuntime:
    def test_disarmed_is_inert(self):
        fault_point("member.detect", index=0, attempt=0)  # must not raise
        assert armed_plan() is None

    def test_raise_fires_and_logs(self):
        arm("raise:point=member.detect,index=1")
        fault_point("member.detect", index=0, attempt=0)  # other index: no-op
        with pytest.raises(InjectedFault, match="member.detect"):
            fault_point("member.detect", index=1, attempt=0)
        assert fired_log() == [
            ("raise", "member.detect", {"index": 1, "attempt": 0})
        ]

    def test_times_caps_firings(self):
        arm("raise:point=p")
        with pytest.raises(InjectedFault):
            fault_point("p")
        fault_point("p")  # capped: default times=1
        assert len(fired_log()) == 1

    def test_times_minus_one_is_unbounded(self):
        arm("raise:point=p,times=-1")
        for _ in range(3):
            with pytest.raises(InjectedFault):
                fault_point("p")
        assert len(fired_log()) == 3

    def test_at_selects_the_nth_hit(self):
        arm("raise:point=p,at=3")
        fault_point("p")
        fault_point("p")
        with pytest.raises(InjectedFault):
            fault_point("p")

    def test_rearming_resets_counters(self):
        arm("raise:point=p")
        with pytest.raises(InjectedFault):
            fault_point("p")
        arm("raise:point=p")  # same plan, fresh counters
        with pytest.raises(InjectedFault):
            fault_point("p")

    def test_attempt_zero_default_recovers_on_retry(self):
        arm("raise:point=member.detect")
        with pytest.raises(InjectedFault):
            fault_point("member.detect", index=0, attempt=0)
        fault_point("member.detect", index=0, attempt=1)  # retry: clean

    def test_hang_sleeps_briefly(self):
        arm("hang:point=p,seconds=0.01")
        fault_point("p")  # returns after the injected sleep
        assert fired_log()[0][0] == "hang"

    def test_corrupt_flips_one_byte(self, tmp_path):
        target = tmp_path / "blob.bin"
        target.write_bytes(bytes(range(16)))
        arm("corrupt:point=state.write,stage=committed,offset=3")
        fault_point("state.write", stage="committed", path=str(target))
        data = target.read_bytes()
        assert data[3] == 3 ^ 0xFF
        assert data[:3] == bytes(range(3)) and data[4:] == bytes(range(4, 16))

    def test_corrupt_without_path_context_is_an_error(self):
        arm("corrupt:point=p")
        with pytest.raises(ReproError, match="path"):
            fault_point("p")

    def test_arm_from_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "raise:point=env.test")
        arm_from_env()
        assert armed_plan() is not None
        with pytest.raises(InjectedFault):
            fault_point("env.test")

    def test_empty_env_is_noop(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "  ")
        arm_from_env()
        assert armed_plan() is None
