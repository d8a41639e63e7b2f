"""Migration-request policy: capacity capping and prioritisation.

The beacon chain can commit at most ``lambda`` migration requests per
epoch (it runs the same consensus as a shard, Section V-A). When clients
propose more, "the migration requests that offer the most significant
improvements in P will be prioritized for commitment". This module
packages that policy over columnar request batches; it and the beacon
chain share one rule,
:func:`~repro.chain.kernels.select_migrations_kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.chain.kernels import select_migrations_kernel
from repro.chain.mapping import ShardMapping
from repro.chain.migration import MigrationRequestBatch
from repro.errors import MigrationError


@dataclass(frozen=True)
class BatchOutcome:
    """Policy outcome: index arrays into the request batch.

    ``committed_idx`` is in commitment order; ``rejected_idx`` carries
    no order guarantee.
    """

    batch: MigrationRequestBatch
    committed_idx: np.ndarray
    rejected_idx: np.ndarray

    @property
    def committed_count(self) -> int:
        return len(self.committed_idx)


class MigrationPolicy:
    """Capacity-capped, gain-prioritised commitment policy.

    Args:
        capacity: maximum requests committed per epoch (``None`` =
            unlimited, used by the ablation study).
        fifo: when True, commit in submission order instead of by gain —
            the ablation baseline for the prioritisation design choice.
    """

    def __init__(self, capacity: Optional[int] = None, fifo: bool = False) -> None:
        if capacity is not None and capacity < 0:
            raise MigrationError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.fifo = fifo

    def select_batch(
        self,
        batch: MigrationRequestBatch,
        mapping: Optional[ShardMapping] = None,
    ) -> BatchOutcome:
        """Validate and choose which requests of ``batch`` commit."""
        committed_idx, rejected_idx = select_migrations_kernel(
            batch.accounts,
            batch.from_shards,
            batch.to_shards,
            batch.gains,
            mapping.as_array() if mapping is not None else None,
            mapping.k if mapping is not None else None,
            self.capacity,
            fifo=self.fifo,
        )
        return BatchOutcome(
            batch=batch, committed_idx=committed_idx, rejected_idx=rejected_idx
        )

    def apply_batch(
        self,
        batch: MigrationRequestBatch,
        mapping: ShardMapping,
    ) -> BatchOutcome:
        """Select and bulk-apply the committed requests to ``mapping``.

        The committed set is deduplicated per account, so the bulk
        ``assign_many`` is equivalent to sequential per-request
        assignment.
        """
        outcome = self.select_batch(batch, mapping)
        mapping.assign_many(
            batch.accounts[outcome.committed_idx],
            batch.to_shards[outcome.committed_idx],
        )
        return outcome
