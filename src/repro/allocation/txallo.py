"""Re-implementation of TxAllo (Zhang et al., ICDE 2023).

TxAllo is the state-of-the-art miner-driven graph-based allocator the
paper compares against. Its objective jointly reduces cross-shard
transactions and balances shard workload; it ships two components:

* **G-TxAllo** — the complete algorithm over the full historical graph:
  deterministic rounds of greedy account moves (community-detection
  flavoured label updates) under a workload cap.
* **A-TxAllo** — the fast adaptive variant: a single greedy pass over
  only the accounts active in the recent window, reusing the standing
  allocation for everyone else.

The original implementation is not public; this version follows the
published description (see DESIGN.md §4). Both variants are
deterministic given their inputs, as miner-driven allocation requires
(every miner must derive the same result without extra consensus).
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.allocation.base import AllocationUpdate, Allocator, UpdateContext
from repro.allocation.graph import TransactionGraph
from repro.chain.mapping import ShardMapping
from repro.chain.params import ProtocolParams
from repro.data.trace import Trace
from repro.errors import AllocationError

DEFAULT_BALANCE_FACTOR = 1.15
DEFAULT_ROUNDS = 6


def _move_gain(
    connection: np.ndarray,
    loads: np.ndarray,
    degree: float,
    eta: float,
    average_load: float,
) -> np.ndarray:
    """Score each shard as a destination for one account.

    The first term rewards co-location with counterparties (each unit of
    connection weight saved converts a cross-shard transaction, worth
    ``2 * eta - 1`` workload units system-wide). The second term
    penalises joining already-overloaded shards proportionally to the
    workload the account brings, which is TxAllo's balance pressure.
    Works element-wise on a ``(k,)`` vector and row-wise on an ``(n, k)``
    connection matrix alike (``degree`` then being an ``(n, 1)`` column).
    """
    colocation = (2.0 * eta - 1.0) * connection
    balance_penalty = degree * (loads / max(average_load, 1e-12))
    return colocation - balance_penalty


def _recheck_movers(
    movers: np.ndarray,
    assignment: np.ndarray,
    loads: np.ndarray,
    degrees: np.ndarray,
    indptr: np.ndarray,
    edge_v: np.ndarray,
    edge_w: np.ndarray,
    coef: float,
    avg_denom: float,
    load_cap: float,
) -> int:
    """Re-check each mover, in order, under the live state and move it.

    The synchronous candidate scan uses round-start loads and rows; this
    step recomputes the mover's connection row from its own CSR slice
    against the live assignment and scores every shard against the live
    loads, so every applied move is a true improvement at application
    time (no oscillation from stale scores). The rows of all movers are
    gathered up front into one pair of Python lists; each row is summed
    over them in edge order from 0.0. The move goes to the first
    strictly best feasible shard (the current one is always feasible)
    when it beats the current shard by more than ``1e-12``. The loop
    runs on Python mirrors of ``assignment`` and ``loads``; both arrays
    are updated in place. Returns the number of movers that moved.
    """
    k = len(loads)
    starts = indptr[movers]
    lengths = indptr[movers + 1] - starts
    # Edge positions of the movers' rows, back to back in mover order.
    gather = np.arange(int(lengths.sum())) + np.repeat(
        starts - (np.cumsum(lengths) - lengths), lengths
    )
    row_v = edge_v[gather].tolist()
    row_w = edge_w[gather].tolist()
    assignment_l = assignment.tolist()
    loads_l = loads.tolist()
    pos = 0
    neg_inf = -np.inf
    moved = 0
    for u, degree, length in zip(
        movers.tolist(), degrees[movers].tolist(), lengths.tolist()
    ):
        end = pos + length
        conn = [0.0] * k
        for v, w in zip(row_v[pos:end], row_w[pos:end]):
            conn[assignment_l[v]] += w
        pos = end
        current = assignment_l[u]
        best_p = 0
        best_val = neg_inf
        for p, c in enumerate(conn):
            if p != current and loads_l[p] + degree > load_cap:
                continue
            val = coef * c - degree * (loads_l[p] / avg_denom)
            if val > best_val:
                best_val = val
                best_p = p
        cur_score = coef * conn[current] - degree * (
            loads_l[current] / avg_denom
        )
        if best_p == current or not best_val > cur_score + 1e-12:
            continue
        assignment_l[u] = best_p
        assignment[u] = best_p
        loads_l[current] -= degree
        loads_l[best_p] += degree
        moved += 1
    loads[:] = loads_l
    return moved


def g_txallo(
    graph: TransactionGraph,
    k: int,
    eta: float,
    balance_factor: float = DEFAULT_BALANCE_FACTOR,
    max_rounds: int = DEFAULT_ROUNDS,
    initial: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Full deterministic TxAllo over the whole graph.

    Returns a dense assignment array of length ``graph.n_accounts``;
    accounts without edges keep their ``initial`` value (or shard
    ``account_id mod k`` when no initial assignment is given, a
    deterministic stand-in for hash placement).

    Each round scans the accounts that have edges against the
    round-start state, then re-checks the candidate movers one by one
    from their own CSR rows (:func:`_recheck_movers`). No connection
    matrix is kept between the scan and the commits, or between rounds.
    """
    if k < 1:
        raise AllocationError(f"k must be >= 1, got {k}")
    n = graph.n_accounts
    if initial is not None:
        assignment = np.asarray(initial, dtype=np.int64).copy()
        if len(assignment) != n:
            raise AllocationError(
                f"initial assignment covers {len(assignment)} accounts, "
                f"graph has {n}"
            )
    else:
        assignment = np.arange(n, dtype=np.int64) % k

    degrees = graph.vertex_weights()
    # The accounts with edges (``graph.vertices()``); every other
    # account keeps its shard and carries no load.
    vertices = np.flatnonzero(degrees > 0)
    n_rows = len(vertices)
    if n_rows == 0:
        return assignment
    edge_u, edge_v, edge_w = graph.to_arrays()
    indptr = graph.csr_indptr(edge_u)
    row_degrees = degrees[vertices]

    loads = np.bincount(
        assignment[vertices], weights=row_degrees, minlength=k
    ).astype(np.float64)
    average_load = float(loads.sum()) / k
    load_cap = balance_factor * average_load

    # Deterministic visit order: heaviest accounts first, ties by id
    # (as positions in ``vertices``, which is sorted by id).
    order = np.lexsort((vertices, -row_degrees))
    rows = np.arange(n_rows)
    # Scan key base: each directed edge's local row (its source's
    # position in ``vertices``; the stream is sorted by source) times k.
    edge_keys = np.repeat(rows * k, np.diff(indptr)[vertices])
    degree_column = row_degrees[:, np.newaxis]
    max_degree = float(row_degrees.max())
    coef = 2.0 * eta - 1.0
    avg_denom = max(average_load, 1e-12)

    for _ in range(max_rounds):
        # Synchronous candidate scan: one fresh scatter builds each
        # account's connection-to-shard row, one matrix op scores all k
        # destinations.
        row_assignment = assignment[vertices]
        connection = np.bincount(
            edge_keys + assignment[edge_v], weights=edge_w, minlength=n_rows * k
        ).reshape(n_rows, k)
        scores = _move_gain(connection, loads, degree_column, eta, average_load)
        current_scores = scores[rows, row_assignment]
        if loads.max() + max_degree <= load_cap:
            # Even the heaviest account fits everywhere: the dense
            # feasibility mask is all-True, and re-writing the current
            # column with its own scores is a no-op — scan the raw
            # score matrix directly.
            masked = scores
        else:
            feasible = loads[np.newaxis, :] + degree_column <= load_cap
            masked = np.where(feasible, scores, -np.inf)
            masked[rows, row_assignment] = current_scores
        best = np.argmax(masked, axis=1)
        wants_move = (best != row_assignment) & (
            masked[rows, best] > current_scores + 1e-12
        )
        movers = vertices[order[wants_move[order]]]
        moved = _recheck_movers(
            movers, assignment, loads, degrees, indptr, edge_v, edge_w,
            coef, avg_denom, load_cap,
        )
        if moved == 0:
            break
    return assignment


def a_txallo(
    graph: TransactionGraph,
    assignment: np.ndarray,
    active_accounts: Iterable[int],
    k: int,
    eta: float,
    balance_factor: float = DEFAULT_BALANCE_FACTOR,
) -> Tuple[np.ndarray, int]:
    """Adaptive TxAllo: one greedy pass over the active accounts only.

    Returns ``(new_assignment, moved_count)``. ``graph`` should contain
    at least the recent-window interactions; A-TxAllo's whole point is
    that it does not need the full ledger. The pass re-checks the
    active accounts that have edges, heaviest first (ties by id),
    through the same commit rule as G-TxAllo (:func:`_recheck_movers`).
    """
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

    moved = _recheck_movers(
        np.array(active, dtype=np.int64), assignment, loads, degrees,
        indptr, edge_v, edge_w, 2.0 * eta - 1.0, max(average_load, 1e-12),
        load_cap,
    )
    return assignment, moved


class TxAlloAllocator(Allocator):
    """Miner-driven TxAllo baseline with G (full) and A (adaptive) modes."""

    def __init__(
        self,
        mode: str = "adaptive",
        balance_factor: float = DEFAULT_BALANCE_FACTOR,
        max_rounds: int = DEFAULT_ROUNDS,
        window_epochs: int = 1,
    ) -> None:
        if mode not in ("adaptive", "full"):
            raise AllocationError(f"mode must be 'adaptive' or 'full', got {mode!r}")
        self.mode = mode
        self.name = "txallo-a" if mode == "adaptive" else "txallo-g"
        self.balance_factor = balance_factor
        self.max_rounds = max_rounds
        self.window_epochs = window_epochs
        self._full_graph = TransactionGraph()
        self._window_graphs: list = []

    def initialize(self, history: Trace, params: ProtocolParams) -> ShardMapping:
        self._full_graph = TransactionGraph.from_batch(
            history.batch, n_accounts=history.n_accounts
        )
        assignment = g_txallo(
            self._full_graph,
            params.k,
            params.eta,
            balance_factor=self.balance_factor,
            max_rounds=self.max_rounds,
        )
        return ShardMapping(assignment, params.k)

    def update(
        self, mapping: ShardMapping, context: UpdateContext
    ) -> AllocationUpdate:
        k = mapping.k
        eta = context.params.eta
        self._full_graph.add_batch(context.committed)

        window_graph = TransactionGraph.from_batch(
            context.committed, n_accounts=mapping.n_accounts
        )
        self._window_graphs.append(window_graph)
        if len(self._window_graphs) > self.window_epochs:
            self._window_graphs.pop(0)

        assignment = mapping.as_array().copy()
        if self.mode == "full":
            input_bytes = float(self._full_graph.size_bytes())
            start = time.perf_counter()
            new_assignment = g_txallo(
                self._full_graph,
                k,
                eta,
                balance_factor=self.balance_factor,
                max_rounds=self.max_rounds,
                initial=assignment,
            )
            elapsed = time.perf_counter() - start
        else:
            recent = TransactionGraph(mapping.n_accounts)
            for g in self._window_graphs:
                recent.merge(g)
            input_bytes = float(recent.size_bytes())
            active = context.committed.touched_accounts()
            start = time.perf_counter()
            new_assignment, _ = a_txallo(
                recent,
                assignment,
                active,
                k,
                eta,
                balance_factor=self.balance_factor,
            )
            elapsed = time.perf_counter() - start

        new_mapping = ShardMapping(new_assignment, k)
        moved = len(mapping.diff(new_mapping))
        return AllocationUpdate(
            mapping=new_mapping,
            execution_time=elapsed,
            unit_time=elapsed,
            input_bytes=input_bytes,
            migrations=moved,
            proposed_migrations=moved,
        )
