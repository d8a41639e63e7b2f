"""The composed ledger ``L = (S_1, ..., S_k, BC)`` (Section III-A-1).

The shards ``S_i`` are the executor's per-shard state stores, ``BC`` is
the beacon chain, and ``phi`` is the mapping the executor routes by.
One epoch runs four steps on it: execute the epoch's transfers, submit
the clients' migration requests (MRs), commit them on the beacon chain,
and reconfigure, which applies the committed MRs to ``phi`` and moves
the migrated accounts' state in the same pass (Section III-B-2).
"""

from __future__ import annotations

from typing import List, Optional

from repro.chain.beacon import BeaconChain
from repro.chain.crossshard import CrossShardExecutor, ExecutionReport
from repro.chain.epoch import EpochReconfigurator
from repro.chain.migration import MigrationRequestBatch
from repro.chain.params import ProtocolParams
from repro.chain.transaction import TransactionBatch
from repro.errors import SimulationError


class Ledger:
    """Shard state stores + beacon chain + the shared mapping ``phi``."""

    def __init__(
        self,
        params: ProtocolParams,
        executor: CrossShardExecutor,
        beacon: Optional[BeaconChain] = None,
        compact_slack: Optional[float] = None,
    ) -> None:
        if executor.mapping.k != params.k:
            raise SimulationError(
                f"mapping has k={executor.mapping.k} but params have "
                f"k={params.k}"
            )
        self.params = params
        self.executor = executor
        self.mapping = executor.mapping
        # Callers that need a segment-spilled committed log pass their
        # own BeaconChain(spill_dir=...); the default stays in-memory.
        self.beacon = beacon if beacon is not None else BeaconChain()
        # Reconfiguration moves state in the executor's registry and
        # announces committed MR batches over its receipts' message bus.
        # ``compact_slack`` threads straight through: when set, every
        # reconfiguration ends with a slack-gated compaction pass.
        self.reconfigurator = EpochReconfigurator(
            self.beacon,
            executor.registry,
            executor.network_transport.bus,
            compact_slack=compact_slack,
        )

    def execute_epoch(self, batch: TransactionBatch) -> List[ExecutionReport]:
        """Run the epoch's transfers through the cross-shard executor.

        The batch runs as one epoch pass of the two-phase relay
        executor: blocks keep their settle-then-transfer order, senders
        that cannot abort commit in one ordered scatter per shard when
        the pass ends, the rest through an exact per-transfer scan. One
        :class:`ExecutionReport` per block, carrying its conservation
        deltas. Amounts come from the batch's ``values`` column when
        present.
        """
        return self.executor.execute_batch(batch)

    # -- migration & reconfiguration ----------------------------------------------

    def submit_migration_batch(self, batch: MigrationRequestBatch) -> None:
        """Forward a columnar batch of client migration requests."""
        self.beacon.submit_batch(batch)

    def commit_migrations(
        self, epoch: int, capacity: Optional[int]
    ) -> MigrationRequestBatch:
        """Commit epoch ``epoch``'s MRs on the beacon chain (capacity-capped);
        return the committed batch."""
        return self.beacon.commit_epoch(
            epoch=epoch, capacity=capacity, mapping=self.mapping
        )

    def reconfigure(self, epoch: int) -> int:
        """Run the reconfiguration that closes epoch ``epoch``; return
        the number of committed MRs applied."""
        return self.reconfigurator.run(epoch, self.mapping)
