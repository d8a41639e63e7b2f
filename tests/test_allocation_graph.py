"""Unit tests for the transaction graph."""

import numpy as np
import pytest

from repro.allocation.graph import EDGE_RECORD_BYTES, TransactionGraph
from repro.chain.transaction import TransactionBatch
from repro.errors import ValidationError


def _weight(graph: TransactionGraph, u: int, v: int) -> float:
    """Weight of edge (u, v), or 0 when absent."""
    return graph.neighbors(u).get(v, 0.0)


class TestConstruction:
    def test_from_batch_aggregates_duplicates(self):
        batch = TransactionBatch(
            np.array([0, 1, 0]), np.array([1, 0, 2])
        )
        graph = TransactionGraph.from_batch(batch)
        assert graph.n_edges == 2
        assert _weight(graph, 0, 1) == 2.0  # 0->1 and 1->0 merge
        assert _weight(graph, 0, 2) == 1.0

    def test_self_transfers_ignored(self):
        batch = TransactionBatch(np.array([1]), np.array([1]))
        graph = TransactionGraph.from_batch(batch)
        assert graph.n_edges == 0

    def test_empty_batch(self):
        graph = TransactionGraph.from_batch(TransactionBatch.empty())
        assert graph.n_edges == 0

    def test_incremental_add_batch(self):
        graph = TransactionGraph(3)
        graph.add_batch(TransactionBatch(np.array([0]), np.array([1])))
        graph.add_batch(TransactionBatch(np.array([1]), np.array([0])))
        assert _weight(graph, 0, 1) == 2.0

    def test_add_batch_grows_universe(self):
        graph = TransactionGraph(2)
        graph.add_batch(TransactionBatch(np.array([0]), np.array([9])))
        assert graph.n_accounts == 10

    def test_add_edge_validation(self):
        graph = TransactionGraph()
        with pytest.raises(ValidationError):
            graph.add_edge(1, 1)
        with pytest.raises(ValidationError):
            graph.add_edge(0, 1, weight=0)
        with pytest.raises(ValidationError):
            graph.add_edge(-1, 1)


class TestQueries:
    @pytest.fixture
    def triangle(self):
        graph = TransactionGraph(3)
        graph.add_edge(0, 1, 2.0)
        graph.add_edge(1, 2, 3.0)
        graph.add_edge(0, 2, 1.0)
        return graph

    def test_degree_is_weighted(self, triangle):
        assert triangle.degree(1) == 5.0
        assert triangle.degree(0) == 3.0

    def test_vertex_weights_dense(self, triangle):
        weights = triangle.vertex_weights()
        assert list(weights) == [3.0, 5.0, 4.0]

    def test_neighbors(self, triangle):
        assert triangle.neighbors(0) == {1: 2.0, 2: 1.0}
        assert triangle.neighbors(99) == {}

    def test_edges_iterate_once_per_pair(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        assert all(u < v for u, v, _ in edges)

    def test_vertices_sorted(self, triangle):
        assert triangle.vertices() == [0, 1, 2]

    def test_size_bytes(self, triangle):
        assert triangle.size_bytes() == 3 * EDGE_RECORD_BYTES

    def test_cut_weight(self, triangle):
        assignment = np.array([0, 0, 1])
        # Edges crossing: (1,2)=3 and (0,2)=1.
        assert triangle.cut_weight(assignment) == 4.0

    def test_merge(self, triangle):
        other = TransactionGraph(3)
        other.add_edge(0, 1, 1.0)
        triangle.merge(other)
        assert _weight(triangle, 0, 1) == 3.0

    def test_repr(self, triangle):
        assert "n_edges=3" in repr(triangle)
