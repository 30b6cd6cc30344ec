"""Unit tests for the file-backed GraphStore: save/open, compact dtypes,
int32 boundary guards, the streaming writer and the mmap fault point."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError, InjectedFault
from repro.faults import arm, disarm
from repro.graph import (
    BipartiteGraph,
    GraphStore,
    StoreFileWriter,
    StoreLayout,
    attached_store,
    detach_all,
    read_file_layout,
)
from repro.graph.store import INT32_MAX, _DATA_OFFSET


@pytest.fixture
def weighted_graph() -> BipartiteGraph:
    rng = np.random.default_rng(7)
    users = rng.integers(0, 60, size=500)
    merchants = rng.integers(0, 25, size=500)
    # half-integers: bit-exact in float32, so compact() narrows them
    weights = rng.integers(1, 64, size=500) / 2.0
    return BipartiteGraph(60, 25, users, merchants, edge_weights=weights)


def assert_same_columns(graph: BipartiteGraph, other: BipartiteGraph) -> None:
    assert (graph.n_users, graph.n_merchants) == (other.n_users, other.n_merchants)
    assert np.array_equal(graph.edge_users, other.edge_users)
    assert np.array_equal(graph.edge_merchants, other.edge_merchants)
    assert (graph.edge_weights is None) == (other.edge_weights is None)
    if graph.edge_weights is not None:
        assert np.array_equal(graph.edge_weights, other.edge_weights)
    assert np.array_equal(graph.user_labels, other.user_labels)
    assert np.array_equal(graph.merchant_labels, other.merchant_labels)


class TestSaveOpen:
    @pytest.mark.parametrize("mmap", [True, False])
    @pytest.mark.parametrize("compact", [True, False])
    def test_round_trip(self, tmp_path, weighted_graph, mmap, compact):
        path = tmp_path / "g.store"
        layout = GraphStore.from_graph(weighted_graph).save(path, compact=compact)
        assert layout.path == str(path)
        opened = GraphStore.open(path, mmap=mmap)
        assert_same_columns(weighted_graph, opened.to_graph())
        if compact:
            assert opened.edge_users.dtype == np.int32
            assert opened.edge_weights.dtype == np.float32
        else:
            assert opened.edge_users.dtype == np.int64
            assert opened.edge_weights.dtype == np.float64

    def test_open_is_read_only(self, tmp_path, weighted_graph):
        path = tmp_path / "g.store"
        GraphStore.from_graph(weighted_graph).save(path)
        opened = GraphStore.open(path)
        with pytest.raises(ValueError):
            opened.edge_users[0] = 1

    def test_unweighted_round_trip(self, tmp_path):
        graph = BipartiteGraph(5, 4, [0, 1, 2], [0, 1, 3])
        path = tmp_path / "g.store"
        GraphStore.from_graph(graph).save(path)
        assert_same_columns(graph, GraphStore.open(path).to_graph())

    def test_empty_graph_round_trip(self, tmp_path):
        graph = BipartiteGraph(3, 2, [], [])
        path = tmp_path / "g.store"
        GraphStore.from_graph(graph).save(path)
        opened = GraphStore.open(path)
        assert opened.n_edges == 0
        assert_same_columns(graph, opened.to_graph())

    def test_windowed_round_trip(self, tmp_path, weighted_graph):
        store = GraphStore.from_graph(weighted_graph)
        alive = np.ones(store.n_edges, dtype=bool)
        alive[::3] = False
        edge_ids = np.arange(store.n_edges, dtype=np.int64) * 2
        windowed = GraphStore(
            n_users=store.n_users,
            n_merchants=store.n_merchants,
            edge_users=store.edge_users,
            edge_merchants=store.edge_merchants,
            edge_weights=store.edge_weights,
            user_labels=store.user_labels,
            merchant_labels=store.merchant_labels,
            edge_ids=edge_ids,
            edge_alive=alive,
        )
        path = tmp_path / "w.store"
        layout = windowed.save(path)
        assert layout.windowed
        opened = GraphStore.open(path)
        window = opened.edge_window()
        assert np.array_equal(np.asarray(window.alive), alive)
        assert np.array_equal(np.asarray(window.edge_ids), edge_ids)

    def test_lossy_weights_stay_float64(self, tmp_path):
        graph = BipartiteGraph(4, 4, [0, 1], [0, 1], edge_weights=[0.1, 0.2])
        path = tmp_path / "g.store"
        layout = GraphStore.from_graph(graph).save(path)
        assert layout.weight_dtype == "float64"
        assert np.array_equal(GraphStore.open(path).edge_weights, [0.1, 0.2])

    def test_attached_store_caches_file_layouts(self, tmp_path, weighted_graph):
        path = tmp_path / "g.store"
        layout = GraphStore.from_graph(weighted_graph).save(path)
        try:
            first = attached_store(layout)
            second = attached_store(layout)
            assert first is second
            assert_same_columns(weighted_graph, first.to_graph())
        finally:
            detach_all()


class TestFileErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphError, match="does not exist"):
            GraphStore.open(tmp_path / "nope.store")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.store"
        path.write_bytes(b"this is not a graph store, honest" * 10)
        with pytest.raises(GraphError, match="bad magic"):
            GraphStore.open(path)

    def test_truncated_payload(self, tmp_path, weighted_graph):
        path = tmp_path / "g.store"
        GraphStore.from_graph(weighted_graph).save(path)
        with open(path, "r+b") as handle:
            handle.truncate(_DATA_OFFSET + 16)
        with pytest.raises(GraphError, match="truncated"):
            GraphStore.open(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "g.store"
        path.write_bytes(b"REPROGS1" + (1 << 20).to_bytes(8, "little") + b"{}")
        with pytest.raises(GraphError):
            read_file_layout(path)

    def test_mmap_open_fault_point(self, tmp_path, weighted_graph):
        path = tmp_path / "g.store"
        layout = GraphStore.from_graph(weighted_graph).save(path)
        arm("raise:point=mmap.open")
        try:
            with pytest.raises(InjectedFault):
                attached_store(layout)
        finally:
            disarm()
            detach_all()


class TestInt32Boundaries:
    def test_layout_rejects_overflowing_id_dtype(self):
        layout = StoreLayout(
            path="x",
            n_users=INT32_MAX + 2,
            n_merchants=1,
            n_edges=0,
            weighted=False,
            id_dtype="int32",
        )
        with pytest.raises(GraphError, match="int32 node ids cannot address"):
            layout.validate()

    def test_layout_boundary_is_inclusive(self):
        # exactly 2**31 nodes: max index 2**31-1 still fits int32
        layout = StoreLayout(
            path="x",
            n_users=INT32_MAX + 1,
            n_merchants=1,
            n_edges=0,
            weighted=False,
            id_dtype="int32",
        )
        layout.validate()

    def test_layout_rejects_unknown_dtype(self):
        layout = StoreLayout(
            path="x",
            n_users=1,
            n_merchants=1,
            n_edges=0,
            weighted=False,
            id_dtype="int16",
        )
        with pytest.raises(GraphError):
            layout.validate()

    def test_writer_rejects_out_of_range_endpoints(self, tmp_path):
        with StoreFileWriter(tmp_path / "w.store", 4, 4, 2) as writer:
            with pytest.raises(GraphError, match="out-of-range"):
                writer.append(np.array([0, 9]), np.array([0, 1]))
            writer.append(np.array([0, 1]), np.array([0, 1]))

    def test_writer_rejects_count_overflow(self, tmp_path):
        with StoreFileWriter(tmp_path / "w.store", 4, 4, 1) as writer:
            with pytest.raises(GraphError, match="overflows the declared edge count"):
                writer.append(np.array([0, 1]), np.array([0, 1]))
            writer.append(np.array([0]), np.array([0]))

    def test_writer_rejects_int32_label_overflow(self, tmp_path):
        writer = StoreFileWriter(tmp_path / "w.store", 2, 2, 0, id_dtype="int32")
        try:
            with pytest.raises(GraphError, match="int32 label dtype"):
                writer.set_user_labels(np.array([0, INT32_MAX + 1]))
        finally:
            writer.abort()

    def test_writer_rejects_lossy_float32_weights(self, tmp_path):
        writer = StoreFileWriter(
            tmp_path / "w.store", 2, 2, 1, weighted=True, weight_dtype="float32"
        )
        try:
            with pytest.raises(GraphError, match="float32"):
                writer.append(np.array([0]), np.array([0]), np.array([0.1]))
        finally:
            writer.abort()


class TestStoreFileWriter:
    def test_chunked_write_matches_bulk_save(self, tmp_path, weighted_graph):
        bulk = tmp_path / "bulk.store"
        GraphStore.from_graph(weighted_graph).save(bulk)
        streamed = tmp_path / "streamed.store"
        with StoreFileWriter(
            streamed,
            n_users=weighted_graph.n_users,
            n_merchants=weighted_graph.n_merchants,
            n_edges=weighted_graph.n_edges,
            weighted=True,
            weight_dtype="float32",
        ) as writer:
            for start in range(0, weighted_graph.n_edges, 128):
                stop = min(start + 128, weighted_graph.n_edges)
                writer.append(
                    weighted_graph.edge_users[start:stop],
                    weighted_graph.edge_merchants[start:stop],
                    weighted_graph.edge_weights[start:stop],
                )
        assert_same_columns(
            GraphStore.open(bulk).to_graph(), GraphStore.open(streamed).to_graph()
        )

    def test_incomplete_writer_refuses_close(self, tmp_path):
        writer = StoreFileWriter(tmp_path / "w.store", 4, 4, 3)
        writer.append(np.array([0]), np.array([0]))
        with pytest.raises(GraphError, match="appended"):
            writer.close()
        writer.abort()

    def test_abort_removes_partial_file(self, tmp_path):
        path = tmp_path / "w.store"
        with pytest.raises(RuntimeError):
            with StoreFileWriter(path, 4, 4, 3) as writer:
                writer.append(np.array([0]), np.array([0]))
                raise RuntimeError("boom")
        assert not path.exists()

    def test_auto_id_dtype_narrows(self, tmp_path):
        with StoreFileWriter(tmp_path / "w.store", 10, 10, 1) as writer:
            writer.append(np.array([3]), np.array([4]))
        assert writer.layout.id_dtype == "int32"
