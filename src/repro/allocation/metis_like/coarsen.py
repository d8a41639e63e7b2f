"""Coarsening phase: heavy-edge matching and graph contraction.

Both steps run on the CSR representation: the multilevel driver calls
:func:`coarsen_level_csr`, which matches with
:func:`heavy_edge_matching_csr` and contracts with :func:`contract_csr`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.allocation.metis_like.csr import CsrAdjacency

#: Below this many directed edges the scalar matching loop beats the
#: vectorised candidate pass (fixed numpy overhead per level).
_CANDIDATE_PASS_MIN_EDGES = 8192


def _heavy_edge_matching_scalar(
    csr: CsrAdjacency,
    vertex_weights: np.ndarray,
    rng: np.random.Generator,
    max_vertex_weight: float,
) -> np.ndarray:
    """Reference sequential matching over plain-list mirrors."""
    n = csr.n
    indptr = csr.indptr.tolist()
    indices = csr.indices.tolist()
    weights = csr.weights.tolist()
    vw = vertex_weights.tolist()
    match: List[int] = [-1] * n
    for u in rng.permutation(n).tolist():
        if match[u] != -1:
            continue
        best_v = -1
        best_w = 0.0
        wu = vw[u]
        for j in range(indptr[u], indptr[u + 1]):
            v = indices[j]
            if match[v] != -1 or v == u:
                continue
            if wu + vw[v] > max_vertex_weight:
                continue
            w = weights[j]
            if w > best_w or (w == best_w and v > best_v):
                best_w = w
                best_v = v
        if best_v == -1:
            match[u] = u
        else:
            match[u] = best_v
            match[best_v] = u
    return np.array(match, dtype=np.int64)


def heavy_edge_matching_csr(
    csr: CsrAdjacency,
    vertex_weights: np.ndarray,
    rng: np.random.Generator,
    max_vertex_weight: float,
    rows: np.ndarray = None,
) -> np.ndarray:
    """Compute a matching preferring the heaviest incident edges.

    Vertices are visited in random order (METIS does the same to avoid
    pathological orderings). Each unmatched vertex is matched with its
    unmatched neighbour of maximum edge weight (ties to the highest
    neighbour id, which makes the choice independent of adjacency
    order), provided the merged vertex would not exceed
    ``max_vertex_weight``. Unmatched vertices are matched with
    themselves. Returns ``match`` with ``match[u] = v`` and
    ``match[v] = u`` (or ``match[u] = u``).
    """
    n = csr.n
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if len(csr.indices) < _CANDIDATE_PASS_MIN_EDGES:
        # Small coarse levels: the fixed cost of the vectorised
        # candidate pass exceeds the scalar scan it saves.
        return _heavy_edge_matching_scalar(
            csr, vertex_weights, rng, max_vertex_weight
        )
    # Vectorised candidate-selection pass: each vertex's lexicographic
    # (weight, neighbour-id) maximum over its *valid* incident edges,
    # computed once over the whole edge stream. Validity (self-loops,
    # weight cap) never changes during the matching, so a candidate that
    # is still unmatched when its vertex's turn comes is exactly the
    # vertex the sequential scan would pick — the scan only shrinks the
    # eligible set. Only conflicted vertices (candidate already taken)
    # fall back to rescanning their adjacency row.
    if rows is None:
        rows = csr.row_index()
    valid = (csr.indices != rows) & (
        vertex_weights[rows] + vertex_weights[csr.indices] <= max_vertex_weight
    )
    # Row-wise lexicographic (weight, neighbour-id) maximum. Integral
    # weights (every graph this partitioner sees) pack exactly into an
    # int64 composite ``w * n + v`` key, so one segment reduction finds
    # both; fractional weights take two reductions (max weight, then
    # max id among the edges attaining it). A trailing sentinel keeps
    # ``reduceat`` defined for empty rows, which are masked out after.
    starts = csr.indptr[:-1]
    empty_row = starts == csr.indptr[1:]
    weights_int = csr.weights.astype(np.int64)
    max_w = int(weights_int.max()) if len(weights_int) else 0
    if (weights_int == csr.weights).all() and max_w < (2**62) // max(n, 1):
        keys = np.where(valid, weights_int * np.int64(n) + csr.indices, -1)
        row_best_key = np.maximum.reduceat(
            np.append(keys, np.int64(-1)), np.minimum(starts, len(keys))
        )
        candidate_arr = np.where(
            empty_row | (row_best_key < 0), -1, row_best_key % np.int64(n)
        ).astype(np.int64)
    else:
        masked_w = np.where(valid, csr.weights, -np.inf)
        row_best_w = np.maximum.reduceat(
            np.append(masked_w, -np.inf), np.minimum(starts, len(masked_w))
        )
        at_best = valid & (masked_w == row_best_w[rows])
        masked_v = np.where(at_best, csr.indices, -1)
        row_best_v = np.maximum.reduceat(
            np.append(masked_v, np.int64(-1)), np.minimum(starts, len(masked_v))
        )
        candidate_arr = np.where(
            empty_row | np.isneginf(row_best_w), -1, row_best_v
        ).astype(np.int64)

    # Plain-list mirrors: the commit pass is inherently sequential (each
    # decision consumes earlier ones), and list indexing beats ndarray
    # scalar access in the interpreter loop. Conflicted vertices convert
    # only their own adjacency row (not the whole edge stream).
    candidate = candidate_arr.tolist()
    indptr = csr.indptr.tolist()
    vw = vertex_weights.tolist()
    match: List[int] = [-1] * n
    for u in rng.permutation(n).tolist():
        if match[u] != -1:
            continue
        best_v = candidate[u]
        if best_v == -1:
            match[u] = u
            continue
        if match[best_v] == -1:
            match[u] = best_v
            match[best_v] = u
            continue
        # Conflict: the precomputed candidate was matched earlier.
        # Rescan u's row for its best still-unmatched valid neighbour.
        start, stop = indptr[u], indptr[u + 1]
        row_v = csr.indices[start:stop].tolist()
        row_w = csr.weights[start:stop].tolist()
        best_v = -1
        best_w = 0.0
        wu = vw[u]
        for j in range(stop - start):
            v = row_v[j]
            if match[v] != -1 or v == u:
                continue
            if wu + vw[v] > max_vertex_weight:
                continue
            w = row_w[j]
            if w > best_w or (w == best_w and v > best_v):
                best_w = w
                best_v = v
        if best_v == -1:
            match[u] = u
        else:
            match[u] = best_v
            match[best_v] = u
    return np.array(match, dtype=np.int64)


def contract_csr(
    csr: CsrAdjacency,
    vertex_weights: np.ndarray,
    match: np.ndarray,
    rows: np.ndarray = None,
) -> Tuple[CsrAdjacency, np.ndarray, np.ndarray]:
    """Contract matched pairs into coarse vertices, fully vectorised.

    Returns ``(coarse_csr, coarse_vertex_weights, fine_to_coarse)``.
    Edges inside a matched pair disappear; parallel edges between coarse
    vertices are summed. Coarse ids are assigned in ascending order of
    each pair's smaller endpoint, matching the scalar reference.
    """
    n = csr.n
    representative = np.minimum(np.arange(n), match)
    is_rep = representative == np.arange(n)
    n_coarse = int(is_rep.sum())
    # Coarse ids ascend with the representative's fine id; the cumsum
    # assigns them in one O(n) pass (no sort needed — representatives
    # are their own fine ids).
    coarse_id = np.cumsum(is_rep) - 1
    fine_to_coarse = coarse_id[representative]
    coarse_weights = np.bincount(
        fine_to_coarse, weights=vertex_weights, minlength=n_coarse
    )

    # Each undirected fine edge appears once per direction; relabelling
    # both directions keeps the coarse stream symmetric, and summing
    # duplicates merges parallel edges. Grouping runs on a stable
    # integer radix sort plus a segmented reduction, which preserves the
    # per-edge accumulation order of the scalar reference.
    coarse_u = fine_to_coarse[csr.row_index() if rows is None else rows]
    coarse_v = fine_to_coarse[csr.indices]
    external = coarse_u != coarse_v
    keys = coarse_u[external] * np.int64(n_coarse) + coarse_v[external]
    if n_coarse * n_coarse < np.iinfo(np.int32).max:
        keys = keys.astype(np.int32)  # halves the radix-sort passes
    if len(keys):
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        run_start = np.concatenate(
            ([True], sorted_keys[1:] != sorted_keys[:-1])
        )
        starts = np.flatnonzero(run_start)
        unique_keys = sorted_keys[starts]
        merged_w = np.add.reduceat(csr.weights[external][order], starts)
    else:
        unique_keys = keys
        merged_w = csr.weights[external]
    rows = (unique_keys // n_coarse).astype(np.int64)
    cols = (unique_keys % n_coarse).astype(np.int64)
    indptr = np.searchsorted(rows, np.arange(n_coarse + 1))
    return (
        CsrAdjacency(indptr, cols, merged_w),
        coarse_weights,
        fine_to_coarse,
    )


def coarsen_level_csr(
    csr: CsrAdjacency,
    vertex_weights: np.ndarray,
    rng: np.random.Generator,
    max_vertex_weight: float,
) -> Tuple[CsrAdjacency, np.ndarray, np.ndarray]:
    """One full coarsening step on the CSR view: match then contract."""
    rows = csr.row_index()
    match = heavy_edge_matching_csr(
        csr, vertex_weights, rng, max_vertex_weight, rows=rows
    )
    return contract_csr(csr, vertex_weights, match, rows=rows)

