"""Workload analytics over the mempool of pending transactions.

The mempool plays two roles in the paper:

1. It is what public platforms (Etherscan-like services) analyse to
   publish the per-shard workload distribution ``Omega`` that clients
   download (Section III-C-2).
2. In the simulation, the paper sets the mempool for an epoch to the
   transactions that will commit in the *next* epoch ("it is from
   analyzing transactions in the next epoch in this simulation").

A mempool here is just a pending :class:`TransactionBatch`; this module
classifies its transactions as intra-/cross-shard under a mapping and
computes the per-shard workload vector from them, both on the batch's
numpy columns.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.chain.kernels import classify_kernel, workload_kernel
from repro.chain.mapping import ShardMapping
from repro.chain.transaction import TransactionBatch
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
