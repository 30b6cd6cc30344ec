"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import FraudBlockSpec, inject_fraud_blocks, toy_dataset, uniform_bipartite
from repro.faults import arm, disarm
from repro.fdet import _native
from repro.graph import BipartiteGraph


@pytest.fixture
def no_native(monkeypatch):
    """Simulate a host without a C compiler (``REPRO_NATIVE=0``).

    The loader forgets its cached kernel on the way in and out, so the
    test sees no kernel and later tests load it again.
    """
    monkeypatch.setenv("REPRO_NATIVE", "0")
    _native._reset_for_tests()
    yield
    _native._reset_for_tests()


@pytest.fixture
def force_transport():
    """Route later process fan-outs onto one worker transport.

    ``force_transport("pickle")`` makes every worker-side store-file map
    fail — the production route to the pickled store, which the retry
    round then ships (configure ``FaultTolerance(degrade=False)`` so that
    round stays on the process backend). Any other transport name leaves
    the default store file in place.
    """

    def force(transport: str) -> None:
        if transport == "pickle":
            arm("raise:point=mmap.open,times=-1")

    yield force
    disarm()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_graph() -> BipartiteGraph:
    """4 users x 3 merchants, 6 edges — hand-checkable."""
    return BipartiteGraph.from_edges(
        [(0, 0), (0, 1), (1, 0), (2, 2), (3, 1), (3, 2)],
        n_users=4,
        n_merchants=3,
    )


@pytest.fixture
def clique_graph() -> BipartiteGraph:
    """Complete 5x4 bipartite graph — the densest possible block."""
    return BipartiteGraph.from_edges(
        [(u, v) for u in range(5) for v in range(4)], n_users=5, n_merchants=4
    )


@pytest.fixture
def planted_graph(rng):
    """A sparse background with one dense planted block; returns (graph, truth)."""
    background = uniform_bipartite(200, 120, 350, rng=rng)
    injection = inject_fraud_blocks(
        background,
        [FraudBlockSpec(n_users=15, n_merchants=6, density=0.8, reuse_merchant_fraction=0.0)],
        rng,
    )
    return injection.graph, injection


@pytest.fixture(scope="session")
def toy():
    """The shared deterministic toy dataset (session-scoped: it is immutable)."""
    return toy_dataset(seed=0)
