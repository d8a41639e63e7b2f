"""Mosaic: the client-driven allocation framework as an ``Allocator``.

This module wires the paper's pieces together for the simulation
protocol of Section V:

* every epoch, the clients active in the system observe their own newly
  committed transactions (their wallets append to ``T_nu``);
* a public oracle publishes the workload vector ``Omega`` from the
  mempool of the upcoming epoch;
* each active client runs Pilot over its local data and proposes a
  migration request when a better shard exists;
* the beacon chain commits at most ``lambda`` requests, prioritised by
  potential gain, and the mapping ``phi`` is updated at the epoch
  reconfiguration.

Internally, the per-client loop is executed with the vectorised
``batch_pilot_decisions`` (numerically identical to per-client
``Pilot.decide``; see ``tests/test_core_pilot.py``), so simulations with
tens of thousands of clients stay fast. Each client's history term
``Psi_h`` is a row of counts the allocator keeps up to date as
transactions arrive and the mapping changes, so a client reads its own
row rather than rescanning the ledger. The history behind the rows is a
few runs of directed edges sorted by owner, so an epoch's sync touches
only the edges of the accounts that changed shard and the epoch's new
edges, not the whole history. The per-client cost accounting
(time per decision, bytes of input) is what Table IV reports; its timed
region covers the row sync and read, ``Psi_e`` and Pilot.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from repro.allocation.base import AllocationUpdate, Allocator, UpdateContext
from repro.chain.mapping import ShardMapping
from repro.chain.migration import MigrationRequestBatch, select_migrations_kernel
from repro.chain.network import OMEGA_ENTRY_BYTES
from repro.chain.params import ProtocolParams
from repro.chain.transaction import TransactionBatch
from repro.core.interaction import interaction_matrix
from repro.core.pilot import batch_pilot_decisions
from repro.data.trace import Trace
from repro.errors import ValidationError
from repro.sim.metrics import shard_workloads

#: The largest account id the int32 history runs can hold.
_MAX_ACCOUNT_ID = int(np.iinfo(np.int32).max)

#: One history run: directed edges ``(owner, counterparty, count)`` as
#: int32 columns, sorted by owner.
_Run = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _merge_runs(older: _Run, newer: _Run) -> _Run:
    """Merge two owner-sorted runs by position, ``older`` first among
    equal owners: each row of ``newer`` lands after the ``older`` rows
    whose owner is at most its own."""
    slots = np.searchsorted(older[0], newer[0], side="right")
    slots += np.arange(len(newer[0]), dtype=slots.dtype)
    from_older = np.ones(len(older[0]) + len(newer[0]), dtype=bool)
    from_older[slots] = False
    merged = []
    for old_column, new_column in zip(older, newer):
        column = np.empty(len(from_older), dtype=np.int32)
        column[from_older] = old_column
        column[slots] = new_column
        merged.append(column)
    return tuple(merged)


def _owned_edges(
    runs: List[_Run], owners: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every edge of ``runs`` whose owner is in ``owners`` (sorted, all
    below 2**31): its counterparty, its count, and the index in
    ``owners`` of its owner."""
    needles = owners.astype(np.int32)  # the runs' dtype: no run is converted
    others, counts, which = [], [], []
    for run in runs:
        first = np.searchsorted(run[0], needles, side="left")
        lengths = np.searchsorted(run[0], needles, side="right") - first
        owner_index = np.repeat(np.arange(len(needles)), lengths)
        starts = np.cumsum(lengths) - lengths
        at = (first - starts)[owner_index] + np.arange(len(owner_index))
        others.append(run[1][at])
        counts.append(run[2][at])
        which.append(owner_index)
    return tuple(np.concatenate(column) for column in (others, counts, which))


class MosaicAllocator(Allocator):
    """The client-driven framework with Pilot as the reference algorithm.

    Args:
        initializer: allocator used to produce the initial mapping
            ``phi_0`` from the historical prefix. The paper initialises
            with TxAllo's result; pass ``None`` to start from the
            deterministic hash allocation instead.
        fifo_commitment: commit migration requests in submission order
            instead of by gain (ablation knob).
        unlimited_migrations: ignore the beacon-chain capacity cap
            (ablation knob).
    """

    name = "mosaic-pilot"

    def __init__(
        self,
        initializer: Optional[Allocator] = None,
        fifo_commitment: bool = False,
        unlimited_migrations: bool = False,
    ) -> None:
        self.initializer = initializer
        self.fifo_commitment = fifo_commitment
        self.unlimited_migrations = unlimited_migrations
        self._reset_history()

    # -- history bookkeeping ---------------------------------------------------

    def _reset_history(self) -> None:
        """Forget every absorbed transaction and the last proposals."""
        # Accumulated client histories as a short list of runs, oldest
        # first: each epoch's aggregated edges enter as one run, in both
        # orientations, and a run merges into its predecessor once that
        # one is at most twice its size, so there are O(log history)
        # runs. Runs absorbed since the last sync are also kept, unmerged,
        # in ``_fresh``: they are not counted in ``_rows`` yet.
        self._runs: List[_Run] = []
        self._fresh: List[_Run] = []
        #: One past the largest absorbed account id.
        self._n_ids = 0
        # Each client holds only its own Psi_h row: ``_rows[a, s]`` counts
        # a's synced interactions with counterparties that ``_phi_seen``
        # puts on shard s (counterparties beyond it contribute nothing).
        # The simulator stores the rows together as one int32 matrix.
        self._rows = np.zeros((0, 0), dtype=np.int32)
        self._phi_seen = np.zeros(0, dtype=np.int64)
        #: The last epoch's proposed migration requests, committed or
        #: not (``None`` before the first update).
        self.last_requests: Optional[MigrationRequestBatch] = None

    def _absorb_batch(self, batch: TransactionBatch) -> None:
        """Append committed transactions to the clients' local stores
        as one run; the next ``_sync_rows`` counts them into the rows."""
        not_self = batch.senders != batch.receivers
        if not not_self.any():
            return
        senders, receivers = batch.senders[not_self], batch.receivers[not_self]
        span = int(max(senders.max(), receivers.max())) + 1
        if span > _MAX_ACCOUNT_ID + 1:
            raise ValidationError(
                f"account id {span - 1} does not fit the int32 history "
                f"(max {_MAX_ACCOUNT_ID})"
            )
        # Both orientations of every interaction, counted per directed
        # pair; the sorted keys put the run in owner order.
        keys, counts = np.unique(
            np.concatenate([senders * span + receivers, receivers * span + senders]),
            return_counts=True,
        )
        run = (
            (keys // span).astype(np.int32),
            (keys % span).astype(np.int32),
            counts.astype(np.int32),
        )
        self._fresh.append(run)
        runs = self._runs
        runs.append(run)
        while len(runs) > 1 and len(runs[-2][0]) <= 2 * len(runs[-1][0]):
            newer = runs.pop()
            runs[-1] = _merge_runs(runs[-1], newer)
        self._n_ids = max(self._n_ids, span)

    def _sync_rows(self, mapping: ShardMapping) -> None:
        """Bring ``_rows`` up to date with ``mapping`` and the runs.

        1. Fold: runs absorbed since the last sync add their weight
           under ``_phi_seen``, the mapping the rows are valid for.
        2. Re-home: every account whose shard differs from ``_phi_seen``
           (committed MRs, new-account placement, a mapping of another
           size) moves the weight of its edges, found by owner in each
           run, from its old shard column to its new one in its
           neighbours' rows. A counterparty a mapping does not cover
           contributes nothing under it, and its weight arrives once a
           later mapping covers it.

        The first sync, and a sync under another ``k``, recount every
        run under ``mapping`` instead. Both steps go into one scatter.
        Counts are integers, so every row equals a fresh scan of the
        history under ``mapping`` regardless of summation order.
        """
        k = mapping.k
        phi = mapping.as_array()
        n = len(phi)
        n_rows = max(n, self._n_ids)
        if self._rows.shape[1] != k:
            # First sync, or a new k: count every run afresh under phi.
            self._rows = np.zeros((n_rows, k), dtype=np.int32)
            self._phi_seen = np.array(phi)
            self._fresh = list(self._runs)
        elif len(self._rows) < n_rows:
            grown = np.zeros((n_rows, k), dtype=np.int32)
            grown[: len(self._rows)] = self._rows
            self._rows = grown

        seen = self._phi_seen
        common = min(len(seen), n)
        changed = np.flatnonzero(seen[:common] != phi[:common])
        if len(seen) != n:
            changed = np.concatenate(
                [changed, np.arange(common, max(len(seen), n))]
            )
        keys, weights = [], []
        for owners, others, w in self._fresh:
            mapped = others < len(seen)
            keys.append(owners[mapped].astype(np.int64) * k + seen[others[mapped]])
            weights.append(w[mapped])
        # Only movers with absorbed edges matter; ``changed`` is sorted,
        # so they, and the movers each mapping covers, are prefixes.
        movers = changed[: np.searchsorted(changed, self._n_ids)]
        if len(movers):
            neighbours, w, which = _owned_edges(self._runs, movers)
            base = neighbours.astype(np.int64) * k
            for shard_of, signed in ((seen, -w), (phi, w)):
                cut = np.searchsorted(movers, len(shard_of))
                inside = slice(None) if cut == len(movers) else which < cut
                keys.append(base[inside] + shard_of[movers[:cut]][which[inside]])
                weights.append(signed[inside])
        if keys:
            # The weights stay int32, the rows' dtype: a cast would take
            # ``np.add.at`` off its fast path.
            np.add.at(
                self._rows.reshape(-1),
                np.concatenate(keys),
                np.concatenate(weights),
            )
        self._fresh = []
        if len(seen) == n:
            seen[changed] = phi[changed]
        else:
            self._phi_seen = np.array(phi)

    # -- Psi evaluation ------------------------------------------------------------

    def _history_psi(
        self, accounts: np.ndarray, mapping: ShardMapping
    ) -> np.ndarray:
        """``Psi_h`` rows for ``accounts`` (all mapped) under ``mapping``.

        Evaluates Eq. 1 over each client's stored history against the
        *current* allocation, exactly as wallets re-evaluate their local
        records: each client's row is kept up to date and read directly.
        """
        self._sync_rows(mapping)
        return self._rows[accounts].astype(np.float64)

    @staticmethod
    def _mean_pilot_input_bytes(psi: Optional[np.ndarray], k: int) -> float:
        """Average bytes one Pilot run consumes (the paper's Table IV).

        A client feeds Pilot its interaction distribution ``Psi`` (stored
        sparse: shard id + count per non-zero entry), the downloaded
        workload vector ``Omega`` (``k`` floats), and a few scalars
        (account id, current shard, ``eta``/``beta``). This is hundreds
        of bytes — the paper measures 228.66 B per account at k = 16 —
        regardless of how large the ledger grows.
        """
        sparse_entry_bytes = 10  # 2-byte shard id + 8-byte count
        scalar_overhead = 16
        nonzero = float((psi > 0).sum(axis=1).mean()) if psi is not None else 0.0
        return k * OMEGA_ENTRY_BYTES + nonzero * sparse_entry_bytes + scalar_overhead

    # -- Allocator interface ---------------------------------------------------------

    def initialize(self, history: Trace, params: ProtocolParams) -> ShardMapping:
        self._reset_history()
        self._absorb_batch(history.batch)
        if self.initializer is not None:
            return self.initializer.initialize(history, params)
        # Deterministic hash-style fallback initialisation.
        rng = np.random.default_rng(params.seed)
        return ShardMapping(
            rng.integers(0, params.k, size=history.n_accounts, dtype=np.int64),
            params.k,
        )

    def update(
        self, mapping: ShardMapping, context: UpdateContext
    ) -> AllocationUpdate:
        params = context.params
        k = mapping.k
        # 1. Wallets observe the epoch's committed transactions.
        self._absorb_batch(context.committed)

        # 2. The oracle publishes Omega from the pending mempool.
        omega = shard_workloads(context.mempool, mapping, params.eta)

        # 3. Active clients run Pilot.
        active = np.union1d(
            context.committed.touched_accounts(),
            context.mempool.touched_accounts(),
        )
        active = active[active < mapping.n_accounts]
        start = time.perf_counter()
        if len(active):
            psi_h = self._history_psi(active, mapping)
            psi_e = interaction_matrix(context.mempool, mapping, active)
            current = mapping.shards_of(active)
            best, gains = batch_pilot_decisions(
                active, psi_h, psi_e, omega, current, params.eta, params.beta
            )
            wants = (best != current) & (gains > 0)
        else:
            best = np.zeros(0, dtype=np.int64)
            gains = np.zeros(0)
            current = np.zeros(0, dtype=np.int64)
            wants = np.zeros(0, dtype=bool)
        elapsed = time.perf_counter() - start

        requests = MigrationRequestBatch(
            active[wants],
            current[wants],
            best[wants],
            gains[wants],
            epoch=context.epoch,
        )
        self.last_requests = requests

        # 4. The beacon chain commits at most lambda requests, by gain,
        # through the same kernel as BeaconChain.commit_epoch; the
        # committed rows hold one request per account.
        committed, _ = select_migrations_kernel(
            requests.accounts,
            requests.from_shards,
            requests.to_shards,
            requests.gains,
            mapping.as_array(),
            k,
            None if self.unlimited_migrations else int(context.capacity),
            fifo=self.fifo_commitment,
        )
        new_mapping = mapping.copy()
        new_mapping.assign_many(
            requests.accounts[committed], requests.to_shards[committed]
        )

        n_active = max(1, len(active))
        input_bytes = self._mean_pilot_input_bytes(
            psi_h + psi_e if len(active) else None, k
        )
        return AllocationUpdate(
            mapping=new_mapping,
            execution_time=elapsed,
            unit_time=elapsed / n_active,
            input_bytes=input_bytes,
            migrations=len(committed),
            proposed_migrations=len(requests),
        )

    def place_new_accounts(
        self,
        new_account_ids: np.ndarray,
        mapping: ShardMapping,
        context: Optional[UpdateContext] = None,
    ) -> np.ndarray:
        """New clients allocate themselves with Pilot (Section VI).

        With no history, the decision reduces to the expected-future term
        (when the client knows upcoming transactions) plus the workload
        tie-break: an empty ``Psi`` gives equal Potential everywhere, so
        the client picks the least-loaded shard.
        """
        new_account_ids = np.asarray(new_account_ids, dtype=np.int64)
        if len(new_account_ids) == 0:
            return new_account_ids.copy()
        k = mapping.k
        if context is not None and len(context.mempool):
            eta = context.params.eta
            beta = context.params.beta
            omega = shard_workloads(context.mempool, mapping, eta)
            ordered = np.unique(new_account_ids)
            psi_e = interaction_matrix(context.mempool, mapping, ordered)
            psi_h = np.zeros_like(psi_e)
            current = np.zeros(len(ordered), dtype=np.int64)
            # New accounts fuse an empty history with their planned
            # activity. At beta = 0 the fused Psi is all zeros, every
            # Potential ties at 0, and the tie-break places the client on
            # the least-loaded shard — the paper's "new accounts can
            # allocate themselves by the workload distribution".
            best, _ = batch_pilot_decisions(
                ordered, psi_h, psi_e, omega, current, eta, beta
            )
            rows = np.searchsorted(ordered, new_account_ids)
            return best[rows]
        # Without an oracle: spread across the least-populated shards.
        # Greedy argmin placement (ties to the lowest shard id) is
        # exactly water-filling: at height h every shard with size <= h
        # takes one slot, in shard-id order — so enumerate the slot grid
        # lexicographically by (height, shard) and take the first m.
        sizes = mapping.shard_sizes().astype(np.int64)
        m = len(new_account_ids)
        # The waterline can rise at most m levels above the emptiest
        # shard (that shard alone offers one slot per level), so the
        # slot grid is O(m * k) even for arbitrarily skewed mappings.
        top = int(sizes.min()) + m + 1
        heights = np.arange(int(sizes.min()), top)
        hh, ss = np.meshgrid(
            heights, np.arange(mapping.k, dtype=np.int64), indexing="ij"
        )
        open_slots = hh >= sizes[ss]
        return ss[open_slots][:m]
