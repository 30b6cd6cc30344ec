"""Microbenchmark: greedy peeling throughput and near-linear scaling.

The paper claims ``O(k̂ |E| log(|U|+|V|))`` total work; this bench times one
full peel at three graph sizes for **both engines** (so the BENCH json
captures the reference-vs-fast before/after), checks the growth is
near-linear in |E| (within a generous log-factor band), and asserts the
fast engine's headline speedup at the largest size.
"""

from __future__ import annotations

import pytest

from repro.datasets import chung_lu_bipartite
from repro.fdet import LogWeightedDensity, PeelEngine, greedy_peel
from repro.fdet._native import native_available
from repro.parallel import time_callable

SIZES = [(2_000, 800, 6_000), (8_000, 3_200, 24_000), (32_000, 12_800, 96_000)]


@pytest.mark.parametrize("engine", PeelEngine.ALL)
@pytest.mark.parametrize("n_users,n_merchants,n_edges", SIZES)
def test_peel_throughput(benchmark, engine, n_users, n_merchants, n_edges):
    graph = chung_lu_bipartite(n_users, n_merchants, n_edges, rng=0)
    metric = LogWeightedDensity()
    weights = metric.edge_weights(graph)
    result = benchmark.pedantic(
        greedy_peel, args=(graph, weights), kwargs={"engine": engine}, rounds=1, iterations=1
    )
    assert result.density > 0


@pytest.mark.parametrize("engine", PeelEngine.ALL)
def test_peel_scaling_is_near_linear(engine):
    timings = []
    for n_users, n_merchants, n_edges in SIZES:
        graph = chung_lu_bipartite(n_users, n_merchants, n_edges, rng=0)
        weights = LogWeightedDensity().edge_weights(graph)
        timing = time_callable(greedy_peel, graph, weights, engine=engine)
        timings.append((graph.n_edges, timing.seconds))

    (e1, t1), (_, _), (e3, t3) = timings
    edge_ratio = e3 / e1  # ~16x
    time_ratio = t3 / max(t1, 1e-9)
    # near-linear: 16x edges should cost far less than quadratic (256x);
    # allow a log factor plus noise
    assert time_ratio < edge_ratio * 6, timings
    print()
    for edges, seconds in timings:
        print(f"  [{engine}] |E|={edges}: {seconds * 1000:.1f} ms")


def test_fast_engine_speedup():
    """The acceptance bar: fast >= 5x reference at the 32k-user size.

    Requires the native core (any system C compiler); without one the fast
    engine runs the reference engine.
    """
    if not native_available():
        pytest.skip("no C compiler available - fast engine runs the reference engine")
    n_users, n_merchants, n_edges = SIZES[-1]
    metric = LogWeightedDensity()

    times = {}
    for engine in PeelEngine.ALL:
        graph = chung_lu_bipartite(n_users, n_merchants, n_edges, rng=0)
        weights = metric.edge_weights(graph)
        times[engine] = time_callable(greedy_peel, graph, weights, engine=engine).seconds

    speedup = times[PeelEngine.REFERENCE] / max(times[PeelEngine.FAST], 1e-9)
    print(f"\n  reference={times['reference'] * 1000:.1f} ms "
          f"fast={times['fast'] * 1000:.1f} ms speedup={speedup:.1f}x")
    assert speedup >= 5.0, times
