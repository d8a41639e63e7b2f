"""Evaluation metrics (Section V-A): the one home of the workload ``omega``.

* **Classification** — a transaction is cross-shard when its sender and
  receiver shards differ (self-transfers are intra-shard).
  :func:`classify` is the only place a batch is checked against the
  mapping; every metric below classifies a batch at most once.
* **Workload** — ``omega_i = |T_i^I| + eta * |T_i^C|``: an intra-shard
  transaction costs its shard 1 unit, a cross-shard one costs each of
  its two shards ``eta``. It is also the vector the public oracle
  publishes to clients (Section III-C-2, :mod:`repro.workload`).
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

from repro.chain.mapping import ShardMapping
from repro.chain.transaction import TransactionBatch
from repro.errors import UnknownAccountError, ValidationError


def classify(
    batch: TransactionBatch, mapping: ShardMapping
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify each transaction under ``mapping``.

    Returns ``(sender_shards, receiver_shards, is_cross)``. An account
    outside the mapping raises :class:`UnknownAccountError` naming the
    largest id of the batch.
    """
    shard_of = mapping.as_array()
    if len(batch) and batch.max_account_id() >= len(shard_of):
        raise UnknownAccountError(batch.max_account_id())
    sender_shards = shard_of[batch.senders]
    receiver_shards = shard_of[batch.receivers]
    return sender_shards, receiver_shards, sender_shards != receiver_shards


def _omega(
    sender_shards: np.ndarray,
    receiver_shards: np.ndarray,
    is_cross: np.ndarray,
    k: int,
    eta: float,
) -> np.ndarray:
    if eta < 1:
        raise ValidationError(f"eta must be >= 1, got {eta}")
    intra = ~is_cross
    workloads = np.bincount(sender_shards[intra], minlength=k).astype(np.float64)
    workloads += eta * np.bincount(sender_shards[is_cross], minlength=k)
    workloads += eta * np.bincount(receiver_shards[is_cross], minlength=k)
    return workloads


def _deviation(omega: np.ndarray) -> float:
    if omega.ndim != 1 or len(omega) == 0:
        raise ValidationError("omega must be a non-empty 1-D vector")
    if not np.isfinite(omega).all():
        raise ValidationError("workloads must be finite")
    if omega.min() < 0:
        raise ValidationError("workloads must be >= 0")
    mean = omega.mean()
    if mean == 0:
        return 0.0
    return float(np.sqrt(np.square(omega - mean).sum() / (len(omega) * mean)))


def _completed(
    sender_shards: np.ndarray,
    receiver_shards: np.ndarray,
    is_cross: np.ndarray,
    omega: np.ndarray,
    capacity: float,
) -> float:
    if len(sender_shards) == 0:
        return 0.0
    with np.errstate(divide="ignore"):
        fraction = np.where(omega > 0, np.minimum(1.0, capacity / omega), 1.0)
    per_tx = np.where(
        is_cross,
        np.minimum(fraction[sender_shards], fraction[receiver_shards]),
        fraction[sender_shards],
    )
    return float(per_tx.sum())


def shard_workloads(
    batch: TransactionBatch, mapping: ShardMapping, eta: float
) -> np.ndarray:
    """Per-shard workload vector ``omega`` for a batch of transactions."""
    return _omega(*classify(batch, mapping), mapping.k, eta)


def cross_shard_ratio(batch: TransactionBatch, mapping: ShardMapping) -> float:
    """Fraction of transactions touching two shards (0.0 for empty)."""
    if len(batch) == 0:
        return 0.0
    _, _, is_cross = classify(batch, mapping)
    return float(is_cross.mean())


def workload_deviation(omega: np.ndarray) -> float:
    """The paper's workload-deviation formula over a workload vector.

    A negative or non-finite entry raises :class:`ValidationError`.
    """
    return _deviation(np.asarray(omega, dtype=np.float64))


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
    classes = classify(batch, mapping)
    omega = _omega(*classes, mapping.k, eta)
    return _completed(*classes, omega, capacity)


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
    """One epoch's bundle: (cross_ratio, deviation, norm_throughput, omega).

    The batch is classified once and the result shared by every metric.

    The paper's deviation formula is not scale-free (it grows with the
    absolute workload magnitude for a fixed relative imbalance), so the
    evaluation expresses workloads in units of the shard capacity
    ``lambda`` before applying it; this reproduces the magnitude range
    of Table III independently of trace size.
    """
    if capacity <= 0:
        raise ValidationError(f"capacity must be > 0, got {capacity}")
    sender_shards, receiver_shards, is_cross = classify(batch, mapping)
    omega = _omega(sender_shards, receiver_shards, is_cross, mapping.k, eta)
    ratio = float(is_cross.mean()) if len(is_cross) else 0.0
    deviation = _deviation(omega / capacity)
    completed = _completed(
        sender_shards, receiver_shards, is_cross, omega, capacity
    )
    return ratio, deviation, completed / capacity, omega
