"""Refinement phase: boundary Fiduccia-Mattheyses-style moves.

After projecting a partition to a finer level, cut quality is improved
by greedy single-vertex moves. A vertex may move to the neighbouring
part with the largest positive gain, provided the balance constraint
stays satisfied. Several passes run until no pass improves the cut.

The pass structure is vectorised: one CSR scatter scores every vertex
against every part simultaneously (the synchronous candidate scan),
then candidates are committed in descending-gain order with an exact
per-vertex re-check against the live assignment — so every applied move
is a true improvement at application time and the cut never worsens,
exactly as in the scalar implementation. Functions accept either the
list-of-dicts adjacency or a pre-built :class:`CsrAdjacency`.

:func:`polish_level` is the one entry point: it runs the multilevel
driver's per-level pipeline (relaxed-cap refine, rebalance, strict-cap
refine) over one shared level state, so the connection matrix —
maintained incrementally and bit-exactly for the integer-valued edge
weights every partitioner graph carries — is scattered once per level
instead of once per phase. Each phase runs at most
:data:`REFINE_PASSES` passes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.allocation.metis_like.csr import (
    AdjacencyLike,
    connection_row,
    csr_from_adjacency,
    cut_weight_csr,
)

__all__ = [
    "part_loads",
    "cut_weight",
    "polish_level",
]

#: Upper bound on the passes of each polish phase; a phase also stops
#: at the first pass that moves nothing.
REFINE_PASSES = 4


def part_loads(vertex_weights: np.ndarray, assignment: np.ndarray, k: int) -> np.ndarray:
    """Total vertex weight per part."""
    return np.bincount(assignment, weights=vertex_weights, minlength=k)


def cut_weight(adjacency: AdjacencyLike, assignment: np.ndarray) -> float:
    """Total weight of edges whose endpoints lie in different parts."""
    return cut_weight_csr(csr_from_adjacency(adjacency), np.asarray(assignment))


class _LevelState:
    """Shared per-level artefacts threaded through the polish phases.

    ``connection_flat`` is the live flattened connection matrix —
    maintained incrementally across phases when edge weights are
    integer-valued (exact float adds), rebuilt from scratch otherwise.
    """

    __slots__ = (
        "edge_rows",
        "edge_keys",
        "indices_k",
        "indptr_l",
        "integral",
        "connection_flat",
    )

    def __init__(self, csr, k: int) -> None:
        self.edge_rows = csr.row_index()
        self.edge_keys = self.edge_rows * k
        self.integral = bool((np.rint(csr.weights) == csr.weights).all())
        self.indices_k = csr.indices * k if self.integral else None
        self.indptr_l = csr.indptr.tolist()
        self.connection_flat: Optional[np.ndarray] = None


def _refine_passes(
    csr,
    vertex_weights: np.ndarray,
    assignment: np.ndarray,
    k: int,
    max_part_weight: float,
    state: _LevelState,
) -> np.ndarray:
    """Improve ``assignment`` in place with boundary moves; return it.

    Each pass scores all boundary vertices at once, then applies
    strictly-positive-gain moves (largest stale gain first, ties by
    vertex id) that keep every part within ``max_part_weight``; each
    move is re-validated against the live assignment before it commits.
    Moves that would empty a part are skipped, so a partition covering
    all ``k`` parts keeps covering them.
    """
    n = csr.n
    loads = part_loads(vertex_weights, assignment, k)
    part_counts = np.bincount(assignment, minlength=k)
    rows_k = np.arange(n) * k
    max_vertex_weight = vertex_weights.max() if n else 0.0
    integral = state.integral
    indices_k = state.indices_k
    indptr_l = state.indptr_l
    connection_flat = state.connection_flat
    connection = (
        None if connection_flat is None else connection_flat.reshape(n, k)
    )
    loads_l = loads.tolist()
    counts_l = part_counts.tolist()
    weights_l = vertex_weights.tolist()
    assignment_l = assignment.tolist()

    for _pass in range(REFINE_PASSES):
        if connection is None:
            connection_flat = np.bincount(
                state.edge_keys + assignment[csr.indices],
                weights=csr.weights,
                minlength=n * k,
            )
            connection = connection_flat.reshape(n, k)
        # Gains are connection minus a per-row constant (the internal
        # connection), so the argmax over masked *connection* values
        # selects the same destination as the argmax over gains — one
        # less dense matrix to materialise. A destination must be
        # adjacent (connection > 0) and must fit.
        current_idx = rows_k + assignment
        if loads.max() + max_vertex_weight <= max_part_weight:
            # Every vertex fits everywhere: a positive gain implies a
            # positive (hence adjacent) destination, so masking the
            # current column in place — saved and restored bit-exact —
            # selects the same movers without any dense temporary.
            internal = connection_flat[current_idx].copy()
            connection_flat[current_idx] = -np.inf
            best = np.argmax(connection, axis=1)
            best_gain = connection_flat[rows_k + best] - internal
            connection_flat[current_idx] = internal
        else:
            feasible = (connection > 0) & (
                loads[np.newaxis, :] + vertex_weights[:, np.newaxis]
                <= max_part_weight
            )
            masked = np.where(feasible, connection, -np.inf)
            masked_flat = masked.ravel()
            masked_flat[current_idx] = -np.inf
            best = np.argmax(masked, axis=1)
            internal = connection_flat[current_idx]
            best_gain = masked_flat[rows_k + best] - internal
        movers = np.flatnonzero(
            (best_gain > 0) & (part_counts[assignment] > 1)
        )
        if len(movers) == 0:
            break
        movers = movers[np.lexsort((movers, -best_gain[movers]))]
        improved = False
        # Commit loop over Python scalars: the synchronous scan above
        # already computed every mover's connection row, so the live
        # re-check reads the cached matrix row — kept current by the
        # incremental scatter on each commit (integral weights) or
        # rebuilt on demand when a neighbour moved ("dirty", fractional
        # weights). The k-way target selection runs on plain lists:
        # like the argmax of the scan, the first strictly better part
        # wins a gain tie, and a zero gain never moves a vertex.
        dirty = None if integral else np.zeros(n, dtype=bool)
        for u in movers.tolist():
            current = assignment_l[u]
            if counts_l[current] <= 1:
                continue
            weight = weights_l[u]
            if dirty is not None and dirty[u]:
                conn = connection_row(csr, u, assignment, k).tolist()
            else:
                conn = connection[u].tolist()
            base = conn[current]
            best_gain_u = 0.0
            target = -1
            for p, c in enumerate(conn):
                if c <= 0.0 or p == current:
                    continue
                if loads_l[p] + weight > max_part_weight:
                    continue
                gain = c - base
                if gain > best_gain_u:
                    best_gain_u = gain
                    target = p
            if target < 0:
                continue
            assignment_l[u] = target
            assignment[u] = target
            loads_l[current] -= weight
            loads_l[target] += weight
            counts_l[current] -= 1
            counts_l[target] += 1
            start, stop = indptr_l[u], indptr_l[u + 1]
            if dirty is None:
                # Neighbour ids are unique within a CSR row, so plain
                # fancy-index arithmetic on the flat view is a safe
                # (and fast) scatter.
                edge_w = csr.weights[start:stop]
                flat_idx = indices_k[start:stop] + current
                connection_flat[flat_idx] -= edge_w
                flat_idx += target - current
                connection_flat[flat_idx] += edge_w
            else:
                dirty[csr.indices[start:stop]] = True
            improved = True
        loads = np.asarray(loads_l, dtype=np.float64)
        part_counts = np.asarray(counts_l, dtype=np.int64)
        if dirty is not None:
            connection = None
            connection_flat = None
        if not improved:
            break
    state.connection_flat = connection_flat if integral else None
    return assignment


def _rebalance_passes(
    csr,
    vertex_weights: np.ndarray,
    assignment: np.ndarray,
    k: int,
    max_part_weight: float,
    state: _LevelState,
) -> np.ndarray:
    """Push parts back under ``max_part_weight`` with minimum-loss moves.

    Projection can violate coarse-level balance at the finer level.
    Vertices move out of overweight parts into the lightest feasible
    part, preferring vertices whose move loses the least cut quality
    (internal connection minus the heaviest external edge, evaluated in
    one vectorised pass per overweight part). A load tie goes to the
    lowest part id, and a part stops draining once it is itself the
    lightest.
    """
    n = csr.n
    loads = part_loads(vertex_weights, assignment, k)
    edge_rows = state.edge_rows
    moved_total = 0
    for _pass in range(REFINE_PASSES):
        overweight = [p for p in range(k) if loads[p] > max_part_weight]
        if not overweight:
            break
        moved_any = False
        # Within a pass, vertices only ever leave overweight parts for
        # the lightest part — never *into* an overweight part — so the
        # pass-start membership gathers stay exact for every part
        # processed in this pass.
        part_of_row = assignment[edge_rows]
        part_of_col = assignment[csr.indices]
        for part in overweight:
            members = np.flatnonzero(assignment == part)
            if len(members) <= 1:
                continue
            # Cheapest-to-move first: lowest (internal - best external),
            # computed for all members over the part's own edge slice —
            # a bincount for the internal sums and a segmented maximum
            # (the slice is row-major) for the best external edge.
            sel = np.flatnonzero(part_of_row == part)
            sel_rows = edge_rows[sel]
            sel_w = csr.weights[sel]
            same_part = part_of_col[sel] == part
            internal = np.bincount(
                sel_rows[same_part], weights=sel_w[same_part], minlength=n
            )
            best_external = np.zeros(n)
            ext_rows = sel_rows[~same_part]
            if len(ext_rows):
                ext_w = sel_w[~same_part]
                seg_starts = np.flatnonzero(
                    np.concatenate(([True], ext_rows[1:] != ext_rows[:-1]))
                )
                best_external[ext_rows[seg_starts]] = np.maximum.reduceat(
                    ext_w, seg_starts
                )
            costs = internal[members] - best_external[members]
            candidates = members[np.argsort(costs, kind="stable")]
            for u in candidates:
                u = int(u)
                if loads[part] <= max_part_weight:
                    break
                weight = float(vertex_weights[u])
                target = int(np.argmin(loads))
                if target == part:
                    break
                # Even when the lightest part cannot take the vertex
                # whole, move anyway to make progress toward balance.
                assignment[u] = target
                loads[part] -= weight
                loads[target] += weight
                moved_any = True
                moved_total += 1
        if not moved_any:
            break
    if moved_total:
        # Rebalance can move thousands of vertices; rebuilding the
        # connection matrix once afterwards is cheaper than scattering
        # every move into it.
        state.connection_flat = None
    return assignment


def polish_level(
    adjacency: AdjacencyLike,
    vertex_weights: np.ndarray,
    assignment: np.ndarray,
    k: int,
    relaxed_cap: float,
    strict_cap: float,
) -> np.ndarray:
    """One level's full polish: relaxed refine, rebalance, strict refine.

    The refine passes (relaxed cap), the rebalance passes and the
    refine passes again (strict cap) run in sequence over one shared
    :class:`_LevelState` — the row index and edge keys survive across
    phases, and (for integral weights) the live connection matrix
    carries over whenever rebalance moved nothing; rebalance moves
    invalidate it, as one rebuild is cheaper than scattering its
    potentially thousands of moves.
    """
    csr = csr_from_adjacency(adjacency)
    if csr.n == 0:
        return assignment
    state = _LevelState(csr, k)
    assignment = _refine_passes(
        csr, vertex_weights, assignment, k, relaxed_cap, state
    )
    assignment = _rebalance_passes(
        csr, vertex_weights, assignment, k, strict_cap, state
    )
    return _refine_passes(csr, vertex_weights, assignment, k, strict_cap, state)
