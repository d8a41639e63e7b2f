"""Vectorised epoch kernels: the shared numpy hot path.

Every per-epoch inner loop of the evaluation protocol funnels through
the pure-ndarray kernels in this module:

* **Classification** — sender/receiver shard lookup and the cross-shard
  mask, computed exactly once per (batch, mapping) pair and reused by
  the workload, throughput and ratio computations
  (:func:`classify_kernel`, consumed by ``chain/mempool.py``,
  ``sim/metrics.py`` and ``chain/crossshard.py``).
* **Workload accounting** — the per-shard workload vector ``omega``
  (:func:`workload_kernel`).
* **Epoch metrics** — the fused cross-ratio / deviation / throughput
  bundle the simulation engine records per epoch
  (:func:`epoch_metrics_kernel`, consumed by ``sim/engine.py`` via
  ``sim/metrics.py``).
* **Migration accounting** — stale-filtering, per-account dedup and
  gain-prioritised capacity capping of one epoch's migration requests
  over columnar arrays (:func:`select_migrations_kernel`, consumed by
  ``chain/beacon.py``, ``core/mosaic.py`` and ``chain/economics.py``).

Each kernel is element-for-element equivalent to the scalar reference
path it replaces; ``tests/test_kernels_equivalence.py`` property-tests
that equivalence across randomized batches and edge cases (empty
epochs, a single shard, all-new accounts).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "classify_kernel",
    "workload_kernel",
    "deviation_kernel",
    "throughput_kernel",
    "epoch_metrics_kernel",
    "select_migrations_kernel",
]


def classify_kernel(
    senders: np.ndarray,
    receivers: np.ndarray,
    shard_of: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify transactions under a dense account->shard array.

    Returns ``(sender_shards, receiver_shards, is_cross)``; a
    transaction is cross-shard when its two shards differ
    (self-transfers are intra-shard by definition).
    """
    sender_shards = shard_of[senders]
    receiver_shards = shard_of[receivers]
    return sender_shards, receiver_shards, sender_shards != receiver_shards


def workload_kernel(
    sender_shards: np.ndarray,
    receiver_shards: np.ndarray,
    is_cross: np.ndarray,
    k: int,
    eta: float,
) -> np.ndarray:
    """Per-shard workload ``omega_i = |T_i^I| + eta * |T_i^C|``.

    A cross-shard transaction contributes ``eta`` units to *both* shards
    it touches; an intra-shard transaction one unit to its single shard.
    """
    if eta < 1:
        raise ValidationError(f"eta must be >= 1, got {eta}")
    intra = ~is_cross
    workloads = np.bincount(sender_shards[intra], minlength=k).astype(np.float64)
    workloads += eta * np.bincount(sender_shards[is_cross], minlength=k)
    workloads += eta * np.bincount(receiver_shards[is_cross], minlength=k)
    return workloads


def deviation_kernel(omega: np.ndarray) -> float:
    """The paper's workload deviation over a workload vector."""
    if omega.ndim != 1 or len(omega) == 0:
        raise ValidationError("omega must be a non-empty 1-D vector")
    if omega.min() < 0:
        raise ValidationError("workloads must be >= 0")
    mean = omega.mean()
    if mean == 0:
        return 0.0
    return float(np.sqrt(np.square(omega - mean).sum() / (len(omega) * mean)))


def throughput_kernel(
    sender_shards: np.ndarray,
    receiver_shards: np.ndarray,
    is_cross: np.ndarray,
    omega: np.ndarray,
    capacity: float,
) -> float:
    """Transactions completed in one epoch under the fluid capacity model.

    Each shard serves the fraction ``min(1, capacity / omega_i)`` of its
    work; a cross-shard transaction completes at the rate of its slower
    shard.
    """
    if capacity <= 0:
        raise ValidationError(f"capacity must be > 0, got {capacity}")
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


def epoch_metrics_kernel(
    senders: np.ndarray,
    receivers: np.ndarray,
    shard_of: np.ndarray,
    k: int,
    eta: float,
    capacity: float,
) -> Tuple[float, float, float, np.ndarray]:
    """Fused per-epoch metric bundle from a single classification pass.

    Returns ``(cross_ratio, deviation, normalized_throughput, omega)``.
    Equivalent to calling the individual metric functions, which each
    re-classify the batch; this kernel classifies once and shares the
    result, the main per-epoch saving of the vectorised pipeline.

    The deviation is evaluated over ``omega / capacity`` (workloads in
    units of the shard capacity ``lambda``), matching
    ``sim/metrics.epoch_metrics``.
    """
    if capacity <= 0:
        raise ValidationError(f"capacity must be > 0, got {capacity}")
    sender_shards, receiver_shards, is_cross = classify_kernel(
        senders, receivers, shard_of
    )
    omega = workload_kernel(sender_shards, receiver_shards, is_cross, k, eta)
    ratio = float(is_cross.mean()) if len(is_cross) else 0.0
    deviation = deviation_kernel(omega / capacity)
    completed = throughput_kernel(
        sender_shards, receiver_shards, is_cross, omega, capacity
    )
    return ratio, deviation, completed / capacity, omega


def select_migrations_kernel(
    accounts: np.ndarray,
    from_shards: np.ndarray,
    to_shards: np.ndarray,
    gains: np.ndarray,
    shard_of: Optional[np.ndarray],
    k: Optional[int],
    capacity: Optional[int],
    fifo: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised migration-request accounting for one epoch.

    Implements the beacon-chain commitment policy over columnar request
    arrays (indices refer to positions in the input arrays):

    1. **Stale filter** (only when ``shard_of``/``k`` are given): drop
       requests whose account is outside the mapping, whose target shard
       is out of range, or whose ``from_shard`` no longer matches the
       mapping.
    2. **Dedup** per account — FIFO keeps the first submission, the
       gain-prioritised mode keeps the highest-gain request (earliest
       submission wins gain ties, matching the scalar reference).
    3. **Capacity cap** — FIFO commits in submission order; otherwise
       requests commit by descending gain, ties broken by account id.

    Returns ``(committed_idx, rejected_idx)``. ``committed_idx`` is in
    commitment order; ``rejected_idx`` is in no particular order.
    """
    n = len(accounts)
    if not (len(from_shards) == len(to_shards) == len(gains) == n):
        raise ValidationError("request arrays must have equal length")
    if capacity is not None and capacity < 0:
        raise ValidationError(f"capacity must be >= 0, got {capacity}")
    indices = np.arange(n)
    if n == 0:
        return indices, indices.copy()

    valid = np.ones(n, dtype=bool)
    if shard_of is not None:
        if k is None:
            raise ValidationError("k is required when shard_of is given")
        in_universe = accounts < len(shard_of)
        valid = in_universe & (to_shards < k)
        safe_accounts = np.where(in_universe, accounts, 0)
        valid &= np.where(in_universe, shard_of[safe_accounts] == from_shards, False)
    valid_idx = indices[valid]
    if len(valid_idx) == 0:
        return valid_idx, indices[~valid]

    if fifo:
        # Keep the first submission per account, in submission order.
        _, first_pos = np.unique(accounts[valid_idx], return_index=True)
        keep = valid_idx[np.sort(first_pos)]
    else:
        # Highest gain per account; earliest submission wins exact ties
        # (stable mergesort on (account, -gain) keys).
        sub = valid_idx
        order = np.lexsort((sub, -gains[sub]))
        ranked = sub[order]
        _, first_pos = np.unique(accounts[ranked], return_index=True)
        survivors = ranked[np.sort(first_pos)]
        # Commitment order: descending gain, ties by account id.
        commit_order = np.lexsort((accounts[survivors], -gains[survivors]))
        keep = survivors[commit_order]

    committed = keep[:capacity] if capacity is not None else keep
    committed_mask = np.zeros(n, dtype=bool)
    committed_mask[committed] = True
    # Duplicates, over-capacity and stale entries, in index order.
    return committed, indices[~committed_mask]
