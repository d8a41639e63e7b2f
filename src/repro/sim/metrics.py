"""Evaluation metrics (Section V-A).

* **Cross-shard transaction ratio** — cross-shard / total transactions.
* **Workload deviation** — the paper's normalised standard deviation::

      ( sum_i (omega_i - mean)^2 / (k * mean) ) ** 0.5

* **System throughput** — transactions completed per epoch under the
  per-shard capacity ``lambda``. We use a fluid (order-independent)
  capacity model: a shard with workload ``omega_i`` processes the
  fraction ``min(1, lambda / omega_i)`` of its work, and a cross-shard
  transaction completes at the rate of its slower shard. The paper
  normalises by ``lambda`` so a non-sharded chain scores 1.0 and a
  perfectly-allocated k-shard system scores k.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.chain.kernels import (
    deviation_kernel,
    epoch_metrics_kernel,
    throughput_kernel,
)
from repro.chain.mapping import ShardMapping
from repro.chain.mempool import classify_transactions, shard_workloads
from repro.chain.transaction import TransactionBatch
from repro.errors import ValidationError


def cross_shard_ratio(batch: TransactionBatch, mapping: ShardMapping) -> float:
    """Fraction of transactions touching two shards (0.0 for empty)."""
    if len(batch) == 0:
        return 0.0
    _, _, is_cross = classify_transactions(batch, mapping)
    return float(is_cross.mean())


def workload_deviation(omega: np.ndarray) -> float:
    """The paper's workload-deviation formula over a workload vector."""
    return deviation_kernel(np.asarray(omega, dtype=np.float64))


def throughput(
    batch: TransactionBatch,
    mapping: ShardMapping,
    eta: float,
    capacity: float,
) -> float:
    """Transactions completed in one epoch under the capacity model.

    Each shard processes at most ``capacity`` workload units. An
    intra-shard transaction completes at its shard's service fraction
    ``min(1, capacity / omega_shard)``; a cross-shard transaction needs
    both shards and completes at the minimum of their fractions.
    """
    if capacity <= 0:
        raise ValidationError(f"capacity must be > 0, got {capacity}")
    if len(batch) == 0:
        return 0.0
    sender_shards, receiver_shards, is_cross = classify_transactions(
        batch, mapping
    )
    omega = shard_workloads(batch, mapping, eta)
    return throughput_kernel(
        sender_shards, receiver_shards, is_cross, omega, capacity
    )


def normalized_throughput(
    batch: TransactionBatch,
    mapping: ShardMapping,
    eta: float,
    capacity: float,
) -> float:
    """``Lambda / lambda``: throughput in units of one shard's capacity.

    A non-sharded chain (k = 1, all transactions intra-shard) scores
    exactly 1.0 under the same ``capacity``, which is the paper's
    normalisation benchmark.
    """
    return throughput(batch, mapping, eta, capacity) / capacity


def staleness_p99(samples: Sequence[int]) -> float:
    """99th percentile of receipt-staleness samples (blocks a delivery
    lagged the relay schedule), 0.0 when no receipt settled.

    Linear-interpolated ``np.percentile`` over the epoch's samples —
    the unified engine records it as the
    ``chain.netsim.receipt_staleness_p99`` counter when receipts ride a
    simulated network.
    """
    if len(samples) == 0:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=np.float64), 99.0))


def epoch_metrics(
    batch: TransactionBatch,
    mapping: ShardMapping,
    eta: float,
    capacity: float,
) -> Tuple[float, float, float, np.ndarray]:
    """Convenience bundle: (cross_ratio, deviation, norm_throughput, omega).

    The paper's deviation formula is not scale-free (it grows with the
    absolute workload magnitude for a fixed relative imbalance), so the
    evaluation expresses workloads in units of the shard capacity
    ``lambda`` before applying it; this reproduces the magnitude range
    of Table III independently of trace size.

    The whole bundle is computed by the fused
    :func:`repro.chain.kernels.epoch_metrics_kernel`, which classifies
    the batch once instead of once per metric.
    """
    shard_of = mapping.as_array()
    if len(batch) and batch.max_account_id() >= len(shard_of):
        raise ValidationError(
            f"batch references account {batch.max_account_id()} outside "
            f"the mapping ({len(shard_of)} accounts)"
        )
    return epoch_metrics_kernel(
        batch.senders, batch.receivers, shard_of, mapping.k, eta, capacity
    )
