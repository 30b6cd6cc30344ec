"""Unit tests for the columnar GraphStore and its spill-file lifecycle."""

from __future__ import annotations

import gc
import os
import pickle
import tempfile

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    BipartiteGraph,
    GraphStore,
    StoreLayout,
    attached_store,
    detach_all,
)


@pytest.fixture
def weighted_graph() -> BipartiteGraph:
    rng = np.random.default_rng(2)
    users = rng.integers(0, 50, size=400)
    merchants = rng.integers(0, 20, size=400)
    weights = rng.uniform(0.1, 3.0, size=400)
    return BipartiteGraph(50, 20, users, merchants, edge_weights=weights)


def assert_same_columns(graph: BipartiteGraph, other: BipartiteGraph) -> None:
    assert (graph.n_users, graph.n_merchants) == (other.n_users, other.n_merchants)
    assert np.array_equal(graph.edge_users, other.edge_users)
    assert np.array_equal(graph.edge_merchants, other.edge_merchants)
    assert (graph.edge_weights is None) == (other.edge_weights is None)
    if graph.edge_weights is not None:
        assert np.array_equal(graph.edge_weights, other.edge_weights)
    assert np.array_equal(graph.user_labels, other.user_labels)
    assert np.array_equal(graph.merchant_labels, other.merchant_labels)


class TestGraphStore:
    def test_from_graph_is_zero_copy(self, weighted_graph):
        store = GraphStore.from_graph(weighted_graph)
        assert store.edge_users is weighted_graph.edge_users
        assert store.edge_weights is weighted_graph.edge_weights

    def test_to_graph_round_trip(self, weighted_graph):
        round_tripped = GraphStore.from_graph(weighted_graph).to_graph()
        assert_same_columns(weighted_graph, round_tripped)

    def test_nbytes_accounts_for_all_columns(self, weighted_graph):
        store = GraphStore.from_graph(weighted_graph)
        expected = 8 * (400 + 400 + 50 + 20 + 400)
        assert store.nbytes == expected

    def test_layout_matches_compact_nbytes(self, weighted_graph):
        store = GraphStore.from_graph(weighted_graph)
        shared = store.export_shared()
        try:
            # the spill is the compacted store: int32 ids, float64 weights
            assert shared.layout.nbytes == store.compact().nbytes < store.nbytes
            assert shared.layout.weighted
        finally:
            shared.dispose()

    def test_layout_is_small_and_picklable(self, weighted_graph):
        shared = GraphStore.from_graph(weighted_graph).export_shared()
        try:
            payload = pickle.dumps(shared.layout)
            assert len(payload) < 512
            assert pickle.loads(payload) == shared.layout
        finally:
            shared.dispose()


class TestSpillLifecycle:
    def test_export_attach_round_trip(self, weighted_graph):
        shared = GraphStore.from_graph(weighted_graph).export_shared()
        try:
            view = attached_store(shared.layout)
            assert_same_columns(weighted_graph, view.to_graph())
            for column in ("edge_users", "edge_merchants", "edge_weights"):
                assert not getattr(view, column).flags.writeable
        finally:
            detach_all()
            shared.dispose()

    def test_attach_is_cached_per_file(self, weighted_graph):
        shared = GraphStore.from_graph(weighted_graph).export_shared()
        try:
            first = attached_store(shared.layout)
            assert attached_store(shared.layout) is first
        finally:
            detach_all()
            shared.dispose()

    def test_new_file_evicts_previous_attachment(self, weighted_graph):
        first_shared = GraphStore.from_graph(weighted_graph).export_shared()
        second_shared = GraphStore.from_graph(weighted_graph).export_shared()
        try:
            attached_store(first_shared.layout)
            attached_store(second_shared.layout)
            from repro.graph.store import _ATTACHED

            assert list(_ATTACHED) == [second_shared.layout.path]
        finally:
            detach_all()
            first_shared.dispose()
            second_shared.dispose()

    def test_attach_missing_file_raises(self, tmp_path):
        layout = StoreLayout(
            path=str(tmp_path / "definitely_missing.store"), n_users=1, n_merchants=1,
            n_edges=0, weighted=False,
        )
        with pytest.raises(GraphError, match="does not exist"):
            attached_store(layout)

    def test_spill_lives_in_its_own_temp_dir(self, weighted_graph):
        shared = GraphStore.from_graph(weighted_graph).export_shared()
        try:
            directory = os.path.dirname(shared.layout.path)
            assert directory == shared.directory
            assert os.path.dirname(directory) == tempfile.gettempdir()
            assert os.path.basename(directory).startswith("repro_gs_spill_")
        finally:
            shared.dispose()

    def test_spill_honours_tmpdir(self, weighted_graph, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with GraphStore.from_graph(weighted_graph).export_shared() as shared:
            assert os.path.dirname(shared.directory) == str(tmp_path)

    def test_dispose_removes_spill_dir(self, weighted_graph):
        shared = GraphStore.from_graph(weighted_graph).export_shared()
        assert os.path.exists(shared.layout.path)
        shared.dispose()
        assert shared.disposed
        assert not os.path.exists(shared.directory)
        shared.dispose()  # idempotent

    def test_context_manager_disposes(self, weighted_graph):
        with GraphStore.from_graph(weighted_graph).export_shared() as shared:
            directory = shared.directory
        assert not os.path.exists(directory)

    def test_dropped_handle_removes_spill_dir(self, weighted_graph):
        shared = GraphStore.from_graph(weighted_graph).export_shared()
        directory = shared.directory
        del shared
        gc.collect()
        assert not os.path.exists(directory)

    def test_failed_spill_leaves_nothing(self, weighted_graph, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

        def refuse(self, path, compact=True):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(GraphStore, "save", refuse)
        with pytest.raises(OSError):
            GraphStore.from_graph(weighted_graph).export_shared()
        assert os.listdir(tmp_path) == []

    def test_mapping_survives_dispose(self, weighted_graph):
        # workers may still hold the map when the parent removes the spill
        shared = GraphStore.from_graph(weighted_graph).export_shared()
        try:
            view = attached_store(shared.layout)
            shared.dispose()
            assert_same_columns(weighted_graph, view.to_graph())
        finally:
            detach_all()

    def test_unweighted_and_empty_graphs_export(self):
        for graph in (
            BipartiteGraph.from_edges([(0, 0), (1, 1)]),
            BipartiteGraph.empty(3, 2),
        ):
            shared = GraphStore.from_graph(graph).export_shared()
            try:
                view = attached_store(shared.layout)
                assert_same_columns(graph, view.to_graph())
            finally:
                detach_all()
                shared.dispose()
