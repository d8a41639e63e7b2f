"""The weighted account-interaction graph.

Graph-based miner-driven methods (Metis, TxAllo) partition an undirected
weighted graph whose vertices are accounts and whose edge weight counts
the transactions between two accounts. Vertex weight is the account's
transaction count, which is the processing workload it brings to a
shard.

The graph is stored columnar (structure-of-arrays): new edges are staged
as raw ``(lo, hi, weight)`` array triples and aggregated lazily into one
canonical sorted edge stream on first query, so the batch -> graph ->
partitioner hot path never materialises per-edge Python objects or
dicts. Dict-shaped views (:meth:`neighbors`) are derived on demand for
tests and examples.

The graph supports incremental merging (A-TxAllo consumes per-epoch
deltas) and reports its serialised size, which is the "input data size"
the efficiency comparison in Table IV charges to miner-driven methods.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.chain.transaction import TransactionBatch
from repro.errors import ValidationError

#: Bytes per serialised edge record: two 20-byte addresses + 8-byte weight.
EDGE_RECORD_BYTES = 48

_EMPTY_IDS = np.zeros(0, dtype=np.int64)
_EMPTY_W = np.zeros(0, dtype=np.float64)


class TransactionGraph:
    """Undirected weighted multigraph aggregated into simple weighted edges."""

    def __init__(self, n_accounts: int = 0) -> None:
        if n_accounts < 0:
            raise ValidationError(f"n_accounts must be >= 0, got {n_accounts}")
        self.n_accounts = n_accounts
        # Canonical aggregated stream: unique (lo, hi) pairs with lo < hi,
        # sorted lexicographically; ``_edge_w`` is parallel.
        self._edge_lo = _EMPTY_IDS
        self._edge_hi = _EMPTY_IDS
        self._edge_w = _EMPTY_W
        # Staged raw contributions awaiting aggregation.
        self._staged_lo: List[np.ndarray] = []
        self._staged_hi: List[np.ndarray] = []
        self._staged_w: List[np.ndarray] = []
        self._total_edge_weight = 0.0
        # True while every staged weight is integer-valued; integral
        # weights make float accumulation exact, enabling the in-place
        # sorted-merge fast path in :meth:`_compiled`.
        self._integral = True
        # Derived caches. The directed stream is stored as sorted
        # (u, v) arrays plus ``_dup``, the map from directed position to
        # canonical edge position: weights are gathered through it at
        # query time, so in-place weight updates need no rebuild, and
        # the integral compile path splices new pairs in incrementally.
        self._directed_u: Optional[np.ndarray] = None
        self._directed_v: Optional[np.ndarray] = None
        self._dup: Optional[np.ndarray] = None
        self._vertex_weight: Optional[np.ndarray] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_batch(
        cls, batch: TransactionBatch, n_accounts: Optional[int] = None
    ) -> "TransactionGraph":
        """Aggregate a transaction batch into a weighted graph."""
        if n_accounts is None:
            n_accounts = batch.max_account_id() + 1
        graph = cls(n_accounts)
        graph.add_batch(batch)
        return graph

    def add_batch(self, batch: TransactionBatch) -> None:
        """Merge a batch of transactions into the graph (incremental)."""
        if len(batch) == 0:
            return
        max_id = batch.max_account_id()
        if max_id >= self.n_accounts:
            self.n_accounts = max_id + 1
        # Canonicalise each pair to (min, max); self-transfers carry no
        # edge. Each transaction contributes one unit of weight.
        lo = np.minimum(batch.senders, batch.receivers)
        hi = np.maximum(batch.senders, batch.receivers)
        not_self = lo != hi
        lo, hi = lo[not_self], hi[not_self]
        if len(lo) == 0:
            return
        self._stage(lo, hi, np.ones(len(lo), dtype=np.float64))

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add (or reinforce) a single undirected edge."""
        if u == v:
            raise ValidationError("self-loops are not allowed")
        if u < 0 or v < 0:
            raise ValidationError("vertex ids must be >= 0")
        if weight <= 0:
            raise ValidationError(f"weight must be > 0, got {weight}")
        self.n_accounts = max(self.n_accounts, u + 1, v + 1)
        self._stage(
            np.array([min(u, v)], dtype=np.int64),
            np.array([max(u, v)], dtype=np.int64),
            np.array([weight], dtype=np.float64),
            integral=float(weight).is_integer(),
        )

    def merge(self, other: "TransactionGraph") -> None:
        """Merge another graph into this one in place."""
        self.n_accounts = max(self.n_accounts, other.n_accounts)
        lo, hi, w = other._compiled()
        if len(lo):
            self._stage(lo.copy(), hi.copy(), w.copy(), integral=other._integral)

    def _stage(
        self, lo: np.ndarray, hi: np.ndarray, w: np.ndarray, integral: bool = True
    ) -> None:
        self._staged_lo.append(lo)
        self._staged_hi.append(hi)
        self._staged_w.append(w)
        self._integral = self._integral and integral
        self._total_edge_weight += float(w.sum())
        self._vertex_weight = None

    def _compiled(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Aggregate staged contributions into the canonical edge stream.

        Staged contributions are aggregated with one segment sum (in
        arrival order — bit-identical to sequential accumulation) and
        then sorted-merged into the existing stream in place. The merge
        adds each edge's staged total onto its existing weight, which is
        exact for integer-valued weights; fractional graphs take the
        full re-aggregation path, whose accumulation order matches the
        sequential reference exactly.
        """
        if not self._staged_lo:
            return self._edge_lo, self._edge_hi, self._edge_w
        # Composite (lo, hi) key over the account universe; ids stay
        # well below 2**31 so the product cannot overflow int64.
        span = np.int64(self.n_accounts)
        if self._integral and len(self._edge_lo):
            lo = np.concatenate(self._staged_lo)
            hi = np.concatenate(self._staged_hi)
            w = np.concatenate(self._staged_w)
            self._staged_lo, self._staged_hi, self._staged_w = [], [], []
            keys = lo * span + hi
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            merged = np.bincount(inverse, weights=w, minlength=len(unique_keys))
            existing_keys = self._edge_lo * span + self._edge_hi
            pos = np.searchsorted(existing_keys, unique_keys)
            in_bounds = pos < len(existing_keys)
            matched = np.zeros(len(unique_keys), dtype=bool)
            matched[in_bounds] = (
                existing_keys[pos[in_bounds]] == unique_keys[in_bounds]
            )
            self._edge_w[pos[matched]] += merged[matched]
            fresh = ~matched
            if fresh.any():
                insert_at = pos[fresh]
                fresh_lo = unique_keys[fresh] // span
                fresh_hi = unique_keys[fresh] % span
                self._edge_lo = np.insert(self._edge_lo, insert_at, fresh_lo)
                self._edge_hi = np.insert(self._edge_hi, insert_at, fresh_hi)
                self._edge_w = np.insert(self._edge_w, insert_at, merged[fresh])
                if self._dup is not None:
                    # Splice the new pairs into the cached directed
                    # stream: shift the dup map past the canonical
                    # insertions, then insert both directions at their
                    # sorted positions — identical to a full rebuild.
                    self._dup += np.searchsorted(
                        insert_at, self._dup, side="right"
                    )
                    new_pos = insert_at + np.arange(len(insert_at))
                    nu = np.concatenate([fresh_lo, fresh_hi])
                    nv = np.concatenate([fresh_hi, fresh_lo])
                    nsrc = np.concatenate([new_pos, new_pos])
                    new_order = np.lexsort((nv, nu))
                    nu, nv, nsrc = nu[new_order], nv[new_order], nsrc[new_order]
                    directed_keys = self._directed_u * span + self._directed_v
                    ipos = np.searchsorted(directed_keys, nu * span + nv)
                    self._directed_u = np.insert(self._directed_u, ipos, nu)
                    self._directed_v = np.insert(self._directed_v, ipos, nv)
                    self._dup = np.insert(self._dup, ipos, nsrc)
        else:
            lo = np.concatenate([self._edge_lo] + self._staged_lo)
            hi = np.concatenate([self._edge_hi] + self._staged_hi)
            w = np.concatenate([self._edge_w] + self._staged_w)
            self._staged_lo, self._staged_hi, self._staged_w = [], [], []
            keys = lo * span + hi
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            merged = np.bincount(inverse, weights=w, minlength=len(unique_keys))
            self._edge_lo = (unique_keys // span).astype(np.int64)
            self._edge_hi = (unique_keys % span).astype(np.int64)
            self._edge_w = merged
            self._directed_u = self._directed_v = self._dup = None
        return self._edge_lo, self._edge_hi, self._edge_w

    # -- queries ---------------------------------------------------------------

    @property
    def n_edges(self) -> int:
        """Number of distinct weighted edges."""
        return len(self._compiled()[0])

    def vertices(self) -> List[int]:
        """All vertices with at least one incident edge, sorted.

        Edge weights are validated positive, so the vertices with an
        incident edge are exactly those with positive weighted degree —
        read off the cached degree array instead of sorting endpoints.
        """
        return np.flatnonzero(self._vertex_weights_cached() > 0).tolist()

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over (u, v, weight) with u < v, sorted by (u, v)."""
        lo, hi, w = self._compiled()
        return zip(lo.tolist(), hi.tolist(), w.tolist())

    def neighbors(self, u: int) -> Dict[int, float]:
        """Neighbour -> edge-weight map for ``u`` (empty if isolated)."""
        edge_u, edge_v, edge_w = self.to_arrays()
        start, stop = np.searchsorted(edge_u, [u, u + 1])
        return dict(
            zip(edge_v[start:stop].tolist(), edge_w[start:stop].tolist())
        )

    def degree(self, u: int) -> float:
        """Weighted degree of ``u``: total transactions it appears in."""
        weights = self._vertex_weights_cached()
        if not 0 <= u < len(weights):
            return 0.0
        return float(weights[u])

    def _vertex_weights_cached(self) -> np.ndarray:
        if self._vertex_weight is None or len(self._vertex_weight) < self.n_accounts:
            lo, hi, w = self._compiled()
            vw = np.bincount(lo, weights=w, minlength=self.n_accounts)
            vw += np.bincount(hi, weights=w, minlength=self.n_accounts)
            self._vertex_weight = vw
        return self._vertex_weight

    def vertex_weights(self) -> np.ndarray:
        """Dense per-account weighted degree array of length n_accounts."""
        return self._vertex_weights_cached().copy()

    def size_bytes(self) -> int:
        """Serialised size — the miner-side allocator input (Table IV)."""
        return self.n_edges * EDGE_RECORD_BYTES

    def to_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Directed columnar edge view ``(u, v, w)`` sorted by ``(u, v)``.

        Every undirected edge appears twice (once per direction), so the
        result is a CSR-ready adjacency stream: consumers slice row
        ``u``'s neighbours with ``searchsorted``. The (u, v) ordering is
        cached and updated in place by the incremental compile; weights
        are gathered through the dup map so they are always current.
        """
        lo, hi, w = self._compiled()
        if self._directed_u is None:
            m = len(lo)
            us = np.concatenate([lo, hi])
            vs = np.concatenate([hi, lo])
            src = np.concatenate([np.arange(m), np.arange(m)])
            order = np.lexsort((vs, us))
            self._directed_u = us[order]
            self._directed_v = vs[order]
            self._dup = src[order]
        return self._directed_u, self._directed_v, w[self._dup]

    def csr_indptr(self, edge_u: np.ndarray) -> np.ndarray:
        """Row pointer for the :meth:`to_arrays` stream, length n+1."""
        return np.searchsorted(edge_u, np.arange(self.n_accounts + 1))

    def cut_weight(self, assignment: np.ndarray) -> float:
        """Total weight of edges crossing parts under ``assignment``."""
        assignment = np.asarray(assignment)
        lo, hi, w = self._compiled()
        if len(lo) == 0:
            return 0.0
        return float(w[assignment[lo] != assignment[hi]].sum())

    def __repr__(self) -> str:
        return (
            f"TransactionGraph(n_accounts={self.n_accounts}, "
            f"n_edges={self.n_edges}, total_weight={self._total_edge_weight:.0f})"
        )
