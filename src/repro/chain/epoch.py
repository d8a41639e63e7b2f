"""Epoch reconfiguration (Section III-B-1).

Every ``tau`` beacon blocks the system reconfigures:

1. **Beacon sync** — each shard pulls the beacon blocks committed during
   the previous epoch and updates its locally stored mapping ``phi``.
2. **State sync** — the state of every migrated account moves from its
   old shard's store to its new one. Account migration rides the state
   synchronisation that reconfiguration already does, so Mosaic adds no
   extra communication round (Section III-B-2).

:class:`EpochReconfigurator` performs those steps against the beacon
chain, the state registry and the message bus, and reports the bytes
Mosaic adds to them: the beacon sync and the migrated accounts' state.
The beacon sync rides the bus as one MR-batch announcement to every
shard; on the ideal network that is a counter bump.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.chain.beacon import BeaconChain, apply_batch_to_mapping, mr_announcement_bytes
from repro.chain.mapping import ShardMapping
from repro.chain.netsim import BEACON_SHARD, MSG_BEACON_ANNOUNCE, MessageBus
from repro.chain.network import MR_RECORD_BYTES
from repro.chain.state import STATE_RECORD_BYTES, StateRegistry
from repro.errors import SimulationError


@dataclass
class ReconfigurationReport:
    """What one epoch reconfiguration did and what it cost."""

    epoch: int
    migrations_applied: int
    beacon_blocks_synced: int
    beacon_sync_bytes: float
    migration_extra_bytes: float = 0.0
    #: Actual account-state bytes moved between shard stores.
    state_moved_bytes: float = 0.0
    #: Column bytes reclaimed by post-migration store compaction
    #: (0 unless the reconfigurator was built with a compact threshold).
    compacted_bytes: float = 0.0

    @property
    def total_communication_bytes(self) -> float:
        """The bytes Mosaic adds to this reconfiguration."""
        return self.beacon_sync_bytes + self.migration_extra_bytes


class EpochReconfigurator:
    """Drives epoch reconfiguration against the chain substrate."""

    def __init__(
        self,
        beacon: BeaconChain,
        registry: StateRegistry,
        bus: MessageBus,
        compact_slack: Optional[float] = None,
    ) -> None:
        if compact_slack is not None and compact_slack < 0:
            raise SimulationError(
                f"compact_slack must be >= 0, got {compact_slack}"
            )
        self._beacon = beacon
        self._registry = registry
        #: Each reconfiguration announces the epoch's committed MR
        #: batches to every shard over this bus (the beacon sync the
        #: analytic model only charges bytes for).
        self._bus = bus
        self._synced_height = 0
        #: When set, each reconfiguration ends with a dense-store
        #: compaction pass: any store whose vacated slots exceed
        #: ``compact_slack`` x its live population is re-slotted so
        #: migration churn cannot grow columns without bound. ``None``
        #: (default) never compacts — state layout is untouched.
        self.compact_slack = compact_slack

    def run(self, epoch: int, mapping: ShardMapping) -> ReconfigurationReport:
        """Run one reconfiguration: sync beacon, apply MRs, move state.

        ``mapping`` is updated in place, exactly as each shard updates its
        local ``phi``. The report gives the beacon-sync bytes (new in
        Mosaic, bounded by MR volume) and the state bytes of the migrated
        accounts. The state sync that conventional reshuffling already
        pays is the same for every compared framework, so it is not
        charged here.
        """
        if epoch < 0:
            raise SimulationError(f"epoch must be >= 0, got {epoch}")

        new_blocks = len(self._beacon) - self._synced_height
        if new_blocks < 0:
            raise SimulationError("beacon chain shrank; invalid state")
        synced_from = self._synced_height
        self._synced_height = len(self._beacon)

        # Account state follows the allocation: the same committed MRs
        # move balances between shard stores, riding the state-sync
        # phase as in Section III-B-2. Each block's committed batch
        # applies as grouped gather/scatter moves (per source, then per
        # target shard); blocks apply in order because an account can
        # legitimately move in two different epochs' blocks.
        state_moved_bytes = 0.0
        request_count = 0
        applied = 0
        for batch in self._beacon.iter_committed_batches(synced_from):
            request_count += len(batch)
            applied += apply_batch_to_mapping(batch, mapping)
            in_universe = batch.accounts < mapping.n_accounts
            state_moved_bytes += float(
                self._registry.migrate_batch(
                    batch.accounts[in_universe],
                    batch.to_shards[in_universe],
                )
            )
        beacon_sync_bytes = float(request_count * MR_RECORD_BYTES)
        if request_count:
            self._bus.send_many(
                MSG_BEACON_ANNOUNCE,
                BEACON_SHARD,
                np.arange(mapping.k),
                self._bus.clock,
                size_bytes=mr_announcement_bytes(request_count),
            )

        # Migrated accounts move state between shards once each; this is
        # the only migration-specific state traffic.
        migration_extra_bytes = float(applied * STATE_RECORD_BYTES)

        compacted_bytes = 0.0
        if self.compact_slack is not None:
            compacted_bytes = float(
                self._registry.compact_stores(self.compact_slack)
            )

        return ReconfigurationReport(
            epoch=epoch,
            migrations_applied=applied,
            beacon_blocks_synced=new_blocks,
            beacon_sync_bytes=beacon_sync_bytes,
            migration_extra_bytes=migration_extra_bytes,
            state_moved_bytes=state_moved_bytes,
            compacted_bytes=compacted_bytes,
        )
