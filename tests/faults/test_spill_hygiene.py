"""Spill hygiene: a process fit of a resident parent spills it to one
temporary store file, and that spill directory is gone after every way the
fan-out can end — normal exit, a SIGKILLed worker, a member-timeout kill,
or an exception raised in the parent while workers are running."""

from __future__ import annotations

import os
import tempfile

import pytest

from repro.datasets import uniform_bipartite
from repro.ensemble import EnsemFDet, EnsemFDetConfig, runner
from repro.faults import arm, disarm
from repro.fdet import FdetConfig
from repro.parallel import FaultTolerance
from repro.sampling import RandomEdgeSampler


@pytest.fixture(autouse=True)
def _clean_faults():
    disarm()
    yield
    disarm()


@pytest.fixture
def spill_root(tmp_path, monkeypatch):
    """An empty private temp dir, so every spill the fit makes lands here."""
    root = tmp_path / "spills"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


@pytest.fixture(scope="module")
def graph():
    return uniform_bipartite(60, 30, 300, rng=0)


def _fit(graph, n_samples=6, **tolerance_kwargs):
    config = EnsemFDetConfig(
        sampler=RandomEdgeSampler(0.4),
        n_samples=n_samples,
        fdet=FdetConfig(max_blocks=6),
        executor="process",
        n_workers=2,
        seed=3,
        tolerance=FaultTolerance(**tolerance_kwargs),
    )
    return EnsemFDet(config).fit(graph)


def test_normal_exit(graph, spill_root):
    result = _fit(graph)
    assert [entry["transport"] for entry in result.retry_log] == ["spill"]
    assert os.listdir(spill_root) == []


def test_sigkilled_worker(graph, spill_root):
    arm("crash:point=member.detect,index=1")
    result = _fit(graph, degrade=False)
    assert "crash" in result.retry_log[0]["kinds"].values()
    assert result.retry_log[0]["transport"] == "spill"
    assert not result.failed_members
    assert os.listdir(spill_root) == []


def test_member_timeout_kill(graph, spill_root):
    arm("hang:point=member.detect,index=1,seconds=20")
    result = _fit(graph, n_samples=2, member_timeout=1.5, degrade=False)
    assert result.retry_log[0]["kinds"]["1"] == "timeout"
    assert result.retry_log[0]["transport"] == "spill"
    assert not result.failed_members
    assert os.listdir(spill_root) == []


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_parent_exception_mid_fan_out(graph, spill_root, monkeypatch, error):
    seen_mid_fan_out = []

    def interrupted(futures, chunks, member_timeout):
        seen_mid_fan_out.extend(os.listdir(spill_root))
        raise error("parent interrupted mid fan-out")

    monkeypatch.setattr(runner, "_gather_chunk_futures", interrupted)
    with pytest.raises(error):
        _fit(graph)
    assert len(seen_mid_fan_out) == 1  # the spill existed while workers ran
    assert os.listdir(spill_root) == []
