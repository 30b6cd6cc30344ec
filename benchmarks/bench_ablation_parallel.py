"""Ablation: executor backends for the detection stage (DESIGN.md §5).

Serial vs process on the same ensemble fit, timed through
``EnsemFDet.fit``. The paper's parallelism claim corresponds to the
process backend; the serial backend, which runs the batched kernel
``native_threads()`` wide in the parent, is the control.
"""

from __future__ import annotations

import pytest

from repro.datasets import make_jd_dataset
from repro.ensemble import EnsemFDet, EnsemFDetConfig
from repro.fdet import FdetConfig
from repro.parallel import ExecutorMode
from repro.sampling import RandomEdgeSampler


@pytest.fixture(scope="module")
def graph(preset):
    return make_jd_dataset(3, scale=preset.dataset_scale, seed=0).graph


@pytest.mark.parametrize("mode", ExecutorMode.ALL)
def test_executor_mode(benchmark, graph, preset, mode):
    config = EnsemFDetConfig(
        sampler=RandomEdgeSampler(preset.sample_ratio),
        n_samples=preset.n_samples,
        fdet=FdetConfig(max_blocks=preset.max_blocks),
        executor=mode,
        seed=0,
    )
    result = benchmark.pedantic(
        EnsemFDet(config).fit, args=(graph,), rounds=1, iterations=1
    )
    assert result.n_samples == preset.n_samples
    total_blocks = sum(len(r.all_blocks) for r in result.fdet_results())
    assert total_blocks >= preset.n_samples  # every sample yields at least one block
    print()
    print(f"{mode}: {total_blocks} blocks over {preset.n_samples} samples")
