"""CSR adjacency: the columnar graph view of the multilevel pipeline.

The partitioner's hot loops (refinement, contraction, cut accounting)
run on a compressed-sparse-row view of each level instead of the
list-of-dicts adjacency the public helpers accept
(:func:`csr_from_adjacency` converts it loss-free). Both representations
describe the same undirected graph: every undirected edge appears twice
in the directed CSR stream and neighbours are sorted within each row.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Union

import numpy as np

Adjacency = List[Dict[int, float]]


class CsrAdjacency(NamedTuple):
    """Directed CSR stream of an undirected weighted graph."""

    indptr: np.ndarray  # (n + 1,) row pointers
    indices: np.ndarray  # (m,) neighbour ids, sorted within each row
    weights: np.ndarray  # (m,) edge weights, parallel to ``indices``

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    def row_index(self) -> np.ndarray:
        """Row id of every directed edge, shape ``(m,)``."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))


AdjacencyLike = Union[Adjacency, CsrAdjacency]


def csr_from_adjacency(adjacency: AdjacencyLike) -> CsrAdjacency:
    """Convert list-of-dicts adjacency to CSR (no-op for CSR input)."""
    if isinstance(adjacency, CsrAdjacency):
        return adjacency
    n = len(adjacency)
    counts = np.fromiter((len(row) for row in adjacency), np.int64, n)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    m = int(indptr[-1])
    indices = np.empty(m, dtype=np.int64)
    weights = np.empty(m, dtype=np.float64)
    for u, row in enumerate(adjacency):
        start, stop = indptr[u], indptr[u + 1]
        ids = np.fromiter(row.keys(), np.int64, len(row))
        order = np.argsort(ids)
        indices[start:stop] = ids[order]
        weights[start:stop] = np.fromiter(row.values(), np.float64, len(row))[
            order
        ]
    return CsrAdjacency(indptr, indices, weights)


def connection_row(
    csr: CsrAdjacency, u: int, assignment: np.ndarray, k: int
) -> np.ndarray:
    """Connection weight of vertex ``u`` to every part (length ``k``)."""
    start, stop = csr.indptr[u], csr.indptr[u + 1]
    return np.bincount(
        assignment[csr.indices[start:stop]],
        weights=csr.weights[start:stop],
        minlength=k,
    )


def cut_weight_csr(csr: CsrAdjacency, assignment: np.ndarray) -> float:
    """Total weight of edges crossing parts (each edge counted once)."""
    crossing = assignment[csr.row_index()] != assignment[csr.indices]
    return float(csr.weights[crossing].sum()) / 2.0
