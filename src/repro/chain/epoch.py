"""Epoch reconfiguration (Section III-B-1).

Every ``tau`` beacon blocks the system reconfigures:

1. **Beacon sync** — each shard pulls the beacon blocks committed during
   the previous epoch and updates its locally stored mapping ``phi``.
2. **State sync** — the state of every migrated account moves from its
   old shard to its new one: the registry rewrites the account's home
   and charges one state record. Account migration rides the state
   synchronisation that reconfiguration already does, so Mosaic adds no
   extra communication round (Section III-B-2).

:class:`EpochReconfigurator` performs those steps against the beacon
chain, the state registry and the message bus. The beacon sync rides
the bus as one MR-batch announcement to every shard; on the ideal
network that is a counter bump.
"""

from __future__ import annotations

import numpy as np

from repro.chain.beacon import BeaconChain
from repro.chain.mapping import ShardMapping
from repro.chain.netsim import BEACON_SHARD, MSG_BEACON_ANNOUNCE, MessageBus
from repro.chain.network import MR_RECORD_BYTES
from repro.chain.state import StateRegistry
from repro.errors import MappingError, SimulationError


class EpochReconfigurator:
    """Drives epoch reconfiguration against the chain substrate."""

    def __init__(
        self,
        beacon: BeaconChain,
        registry: StateRegistry,
        bus: MessageBus,
    ) -> None:
        self._beacon = beacon
        self._registry = registry
        #: Each reconfiguration announces the epoch's committed MR
        #: batches to every shard over this bus (the beacon sync the
        #: analytic model only charges bytes for).
        self._bus = bus
        self._synced_height = 0

    def run(self, epoch: int, mapping: ShardMapping) -> int:
        """Run one reconfiguration; return the number of MRs applied.

        Syncs the beacon blocks committed since the last run, applies
        their MRs to ``mapping`` in place (exactly as each shard updates
        its local ``phi``) and moves the migrated accounts' state. A
        committed MR whose account lies outside ``mapping`` is synced
        but not applied. A target shard outside ``mapping`` raises
        :class:`MappingError` before anything changes, so a retry
        raises again.
        """
        if epoch < 0:
            raise SimulationError(f"epoch must be >= 0, got {epoch}")
        if len(self._beacon) < self._synced_height:
            raise SimulationError("beacon chain shrank; invalid state")
        batches = list(self._beacon.iter_committed_batches(self._synced_height))
        for batch in batches:
            if int(batch.to_shards.max()) >= mapping.k:
                row = int(np.argmax(batch.to_shards >= mapping.k))
                raise MappingError(
                    f"committed MR moves account {int(batch.accounts[row])} "
                    f"to shard {int(batch.to_shards[row])}, outside the "
                    f"mapping's {mapping.k} shards"
                )
        self._synced_height = len(self._beacon)

        # Account state follows the allocation: the same committed MRs
        # rehome balances on their new shards, riding the state-sync
        # phase as in Section III-B-2. Blocks apply in order because an
        # account can legitimately move in two different epochs'
        # blocks; within one block the commitment round left one MR
        # per account, as ``migrate_batch`` requires.
        request_count = 0
        applied = 0
        for batch in batches:
            request_count += len(batch)
            in_universe = batch.accounts < mapping.n_accounts
            accounts = batch.accounts[in_universe]
            targets = batch.to_shards[in_universe]
            mapping.assign_many(accounts, targets)
            self._registry.migrate_batch(accounts, targets)
            applied += len(accounts)
        if request_count:
            # Miners learn the committed MRs by syncing the beacon: one
            # announcement per shard carrying every synced MR record.
            self._bus.send_many(
                MSG_BEACON_ANNOUNCE,
                BEACON_SHARD,
                np.arange(mapping.k),
                self._bus.clock,
                size_bytes=float(request_count * MR_RECORD_BYTES),
            )
        return applied
