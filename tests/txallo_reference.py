"""Scan-and-commit reference for G-TxAllo and A-TxAllo (a test oracle).

Production re-checks each mover from its own CSR row on Python scalars
and scans only the accounts that have edges. This module keeps the
plain formulation: every round scans all ``n`` accounts with one dense
``(n, k)`` connection matrix against the round-start state, then
re-checks the movers in visit order with :func:`commit_move`, which
recomputes the account's row with ``np.bincount`` and takes the masked
``argmax`` under the live assignment and loads. Property tests check
the production kernels against it byte for byte.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.allocation.graph import TransactionGraph
from repro.allocation.txallo import (
    DEFAULT_BALANCE_FACTOR,
    DEFAULT_ROUNDS,
    _move_gain,
)


def commit_move(
    u: int,
    assignment: np.ndarray,
    loads: np.ndarray,
    degrees: np.ndarray,
    edge_v: np.ndarray,
    edge_w: np.ndarray,
    indptr: np.ndarray,
    k: int,
    eta: float,
    average_load: float,
    load_cap: float,
) -> bool:
    """Re-evaluate account ``u`` under the current state and move it.

    Recomputes ``u``'s connection row and balance penalty against the
    live assignment and loads; the move happens only when the best
    feasible shard beats the current one by more than ``1e-12``.
    Returns True when ``u`` moved.
    """
    start, stop = indptr[u], indptr[u + 1]
    connection = np.bincount(
        assignment[edge_v[start:stop]],
        weights=edge_w[start:stop],
        minlength=k,
    )
    degree = float(degrees[u])
    scores = _move_gain(connection, loads, degree, eta, average_load)
    current = int(assignment[u])
    feasible = loads + degree <= load_cap
    feasible[current] = True
    masked = np.where(feasible, scores, -np.inf)
    best = int(np.argmax(masked))
    if best == current or not masked[best] > scores[current] + 1e-12:
        return False
    assignment[u] = best
    loads[current] -= degree
    loads[best] += degree
    return True


def g_txallo_reference(
    graph: TransactionGraph,
    k: int,
    eta: float,
    balance_factor: float = DEFAULT_BALANCE_FACTOR,
    max_rounds: int = DEFAULT_ROUNDS,
    initial: Optional[np.ndarray] = None,
) -> np.ndarray:
    """G-TxAllo: synchronous dense scan, then :func:`commit_move` per
    mover in visit order (heaviest first, ties by id)."""
    n = graph.n_accounts
    if initial is not None:
        assignment = np.asarray(initial, dtype=np.int64).copy()
    else:
        assignment = np.arange(n, dtype=np.int64) % k
    vertices = np.asarray(graph.vertices(), dtype=np.int64)
    if len(vertices) == 0:
        return assignment
    edge_u, edge_v, edge_w = graph.to_arrays()
    indptr = graph.csr_indptr(edge_u)
    degrees = graph.vertex_weights()
    loads = np.bincount(
        assignment[vertices], weights=degrees[vertices], minlength=k
    ).astype(np.float64)
    average_load = float(loads.sum()) / k
    load_cap = balance_factor * average_load
    order = vertices[np.lexsort((vertices, -degrees[vertices]))]
    rows = np.arange(n)
    for _ in range(max_rounds):
        connection = np.bincount(
            edge_u * k + assignment[edge_v], weights=edge_w, minlength=n * k
        ).reshape(n, k)
        scores = _move_gain(
            connection, loads, degrees[:, np.newaxis], eta, average_load
        )
        current_scores = scores[rows, assignment]
        feasible = loads[np.newaxis, :] + degrees[:, np.newaxis] <= load_cap
        masked = np.where(feasible, scores, -np.inf)
        masked[rows, assignment] = current_scores
        best = np.argmax(masked, axis=1)
        wants_move = (
            (best != assignment)
            & (masked[rows, best] > current_scores + 1e-12)
            & (degrees > 0)
        )
        moved = 0
        for u in order[wants_move[order]].tolist():
            if commit_move(
                u, assignment, loads, degrees, edge_v, edge_w, indptr,
                k, eta, average_load, load_cap,
            ):
                moved += 1
        if moved == 0:
            break
    return assignment


def a_txallo_reference(
    graph: TransactionGraph,
    assignment: np.ndarray,
    active_accounts: Iterable[int],
    k: int,
    eta: float,
    balance_factor: float = DEFAULT_BALANCE_FACTOR,
) -> Tuple[np.ndarray, int]:
    """A-TxAllo: :func:`commit_move` over the active accounts that have
    edges, heaviest first, ties by id."""
    assignment = np.asarray(assignment, dtype=np.int64).copy()
    active = sorted(
        (a for a in set(int(a) for a in active_accounts) if graph.degree(a) > 0),
        key=lambda a: (-graph.degree(a), a),
    )
    if not active:
        return assignment, 0
    edge_u, edge_v, edge_w = graph.to_arrays()
    indptr = graph.csr_indptr(edge_u)
    degrees = graph.vertex_weights()
    vertices = np.asarray(graph.vertices(), dtype=np.int64)
    loads = np.bincount(
        assignment[vertices], weights=degrees[vertices], minlength=k
    ).astype(np.float64)
    average_load = float(loads.sum()) / k
    load_cap = balance_factor * max(average_load, 1e-12)
    moved = 0
    for account in active:
        if commit_move(
            account, assignment, loads, degrees, edge_v, edge_w, indptr,
            k, eta, average_load, load_cap,
        ):
            moved += 1
    return assignment, moved
