"""Mempool: the repository of pending transactions.

The mempool plays two roles in the paper:

1. It is what public platforms (Etherscan-like services) analyse to
   publish the per-shard workload distribution ``Omega`` that clients
   download (Section III-C-2).
2. In the simulation, the paper sets the mempool for an epoch to the
   transactions that will commit in the *next* epoch ("it is from
   analyzing transactions in the next epoch in this simulation").

:class:`Mempool` therefore wraps a pending :class:`TransactionBatch` and
can compute the per-shard workload vector under a given mapping. The
pool is columnar end to end: batches flow mempool -> miner -> executor
-> epoch metrics as parallel numpy arrays, and per-transaction
:class:`Transaction` objects exist only as lazy views (``batch.at(i)``,
iteration) for tests and error messages.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.chain.kernels import classify_kernel, workload_kernel
from repro.chain.mapping import ShardMapping
from repro.chain.transaction import Transaction, TransactionBatch
from repro.errors import UnknownAccountError


def classify_transactions(
    batch: TransactionBatch, mapping: ShardMapping
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify each transaction under ``mapping``.

    Returns ``(sender_shards, receiver_shards, is_cross)`` where
    ``is_cross[i]`` is True when the transaction touches two shards.
    Self-transfers (sender == receiver) are intra-shard by definition.
    """
    shard_of = mapping.as_array()
    if len(batch) and batch.max_account_id() >= len(shard_of):
        raise UnknownAccountError(batch.max_account_id())
    return classify_kernel(batch.senders, batch.receivers, shard_of)


def shard_workloads(
    batch: TransactionBatch, mapping: ShardMapping, eta: float
) -> np.ndarray:
    """Per-shard workload vector ``omega`` for a batch of transactions.

    Following Section V: ``omega_i = |T_i^I| + eta * |T_i^C|`` where a
    cross-shard transaction contributes ``eta`` units to *both* shards it
    touches and an intra-shard transaction contributes 1 unit to its one
    shard.
    """
    sender_shards, receiver_shards, is_cross = classify_transactions(batch, mapping)
    return workload_kernel(sender_shards, receiver_shards, is_cross, mapping.k, eta)


class Mempool:
    """A pool of pending transactions plus workload analytics."""

    def __init__(self, pending: Optional[TransactionBatch] = None) -> None:
        self._pending = pending if pending is not None else TransactionBatch.empty()

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending(self) -> TransactionBatch:
        """The pending transactions currently in the pool."""
        return self._pending

    def add(self, transaction: Transaction) -> None:
        """Append a single pending transaction."""
        single = TransactionBatch.from_transactions([transaction])
        self._pending = self._pending.concat(single)

    def add_batch(self, batch: TransactionBatch) -> None:
        """Append a batch of pending transactions."""
        self._pending = self._pending.concat(batch)

    def replace(self, batch: TransactionBatch) -> None:
        """Replace the entire pool (simulation epoch roll-over)."""
        self._pending = batch

    def drain(self) -> TransactionBatch:
        """Remove and return everything currently pending."""
        drained = self._pending
        self._pending = TransactionBatch.empty()
        return drained
