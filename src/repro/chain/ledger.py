"""The composed ledger ``L = (S_1, ..., S_k, BC)`` (Section III-A-1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.chain.beacon import BeaconChain, CommitReport
from repro.chain.crossshard import CrossShardExecutor, ExecutionReport
from repro.chain.epoch import EpochReconfigurator, ReconfigurationReport
from repro.chain.mapping import ShardMapping
from repro.chain.mempool import Mempool, classify_transactions, shard_workloads
from repro.chain.migration import MigrationRequestBatch
from repro.chain.miner import MinerPool
from repro.chain.params import ProtocolParams
from repro.chain.shard import ShardChain
from repro.chain.transaction import TransactionBatch
from repro.errors import SimulationError
from repro.util.rng import RngFactory


@dataclass
class EpochStats:
    """Per-epoch processing statistics produced by the ledger."""

    epoch: int
    total_transactions: int
    intra_shard: int
    cross_shard: int
    workloads: np.ndarray = field(repr=False)

    @property
    def cross_shard_ratio(self) -> float:
        """Fraction of transactions that were cross-shard."""
        if self.total_transactions == 0:
            return 0.0
        return self.cross_shard / self.total_transactions

    @property
    def intra_shard_ratio(self) -> float:
        """Fraction of transactions that stayed within one shard."""
        if self.total_transactions == 0:
            return 0.0
        return self.intra_shard / self.total_transactions


@dataclass(frozen=True)
class _ShardBlockSummary:
    """Payload stored in shard blocks: a compact commitment to the work.

    Keeping a summary (rather than every transaction object) keeps long
    simulations memory-friendly while still committing the chain to the
    epoch's content via the payload digest.
    """

    shard: int
    epoch: int
    intra_count: int
    cross_count: int


class Ledger:
    """``k`` shard chains + beacon chain + the shared mapping ``phi``."""

    def __init__(
        self,
        params: ProtocolParams,
        mapping: ShardMapping,
        miners_per_shard: int = 0,
        executor: Optional[CrossShardExecutor] = None,
        beacon: Optional[BeaconChain] = None,
        compact_slack: Optional[float] = None,
    ) -> None:
        if mapping.k != params.k:
            raise SimulationError(
                f"mapping has k={mapping.k} but params have k={params.k}"
            )
        if executor is not None and executor.mapping is not mapping:
            raise SimulationError(
                "executor must share the ledger's mapping object"
            )
        self.params = params
        self.mapping = mapping
        self.shards: List[ShardChain] = [ShardChain(i) for i in range(params.k)]
        # Callers that need a segment-spilled committed log pass their
        # own BeaconChain(spill_dir=...); the default stays in-memory.
        self.beacon = beacon if beacon is not None else BeaconChain()
        self.mempool = Mempool()
        self.executor = executor
        rng_factory = RngFactory(params.seed)
        self.miner_pool: Optional[MinerPool] = (
            MinerPool(params.k, miners_per_shard, rng_factory)
            if miners_per_shard > 0
            else None
        )
        # Reconfiguration announces committed MR batches over the
        # executor's message bus when receipts ride a simulated network.
        transport = executor.network_transport if executor is not None else None
        # ``compact_slack`` threads straight through to the epoch
        # reconfigurator: when set, every reconfiguration ends with a
        # slack-gated state-store compaction pass.
        self.reconfigurator = EpochReconfigurator(
            self.beacon,
            self.miner_pool,
            executor,
            compact_slack=compact_slack,
            bus=transport.bus if transport is not None else None,
        )
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """Index of the next epoch to be processed."""
        return self._epoch

    # -- transaction commitment (per epoch) ------------------------------------

    def process_epoch(self, batch: TransactionBatch) -> EpochStats:
        """Commit one epoch's transactions under the current ``phi``.

        Classifies each transaction as intra/cross-shard, extends every
        shard chain with a block committing to its share of the work, and
        returns the epoch statistics (metrics are computed against the
        allocation from the *previous* reconfiguration, as in the paper).
        """
        max_id = batch.max_account_id()
        if max_id >= self.mapping.n_accounts:
            raise SimulationError(
                f"batch references account {max_id} but mapping only covers "
                f"{self.mapping.n_accounts} accounts; grow the mapping first"
            )
        sender_shards, receiver_shards, is_cross = classify_transactions(
            batch, self.mapping
        )
        k = self.params.k
        intra_by_shard = np.bincount(sender_shards[~is_cross], minlength=k)
        cross_by_shard = np.bincount(
            sender_shards[is_cross], minlength=k
        ) + np.bincount(receiver_shards[is_cross], minlength=k)

        for shard_id, chain in enumerate(self.shards):
            summary = _ShardBlockSummary(
                shard=shard_id,
                epoch=self._epoch,
                intra_count=int(intra_by_shard[shard_id]),
                cross_count=int(cross_by_shard[shard_id]),
            )
            chain.append_block([summary], epoch=self._epoch)

        workloads = shard_workloads(batch, self.mapping, self.params.eta)
        stats = EpochStats(
            epoch=self._epoch,
            total_transactions=len(batch),
            intra_shard=int((~is_cross).sum()),
            cross_shard=int(is_cross.sum()),
            workloads=workloads,
        )
        return stats

    def execute_epoch(
        self, batch: TransactionBatch, amount_per_tx: float = 1.0
    ) -> List[ExecutionReport]:
        """Run the epoch's transfers through the cross-shard executor.

        The batch flows mempool -> executor entirely columnar (the
        two-phase relay committer); requires an ``executor`` at
        construction. Amounts come from the batch's ``values`` column
        when present.
        """
        if self.executor is None:
            raise SimulationError(
                "this ledger was built without a cross-shard executor"
            )
        return self.executor.execute_batch(batch, amount_per_tx=amount_per_tx)

    # -- migration & reconfiguration ----------------------------------------------

    def submit_migration_batch(self, batch: MigrationRequestBatch) -> None:
        """Forward a columnar batch of client migration requests."""
        self.beacon.submit_batch(batch)

    def commit_migrations(self, capacity: Optional[int]) -> CommitReport:
        """Commit this epoch's MRs on the beacon chain (capacity-capped)."""
        return self.beacon.commit_epoch(
            epoch=self._epoch, capacity=capacity, mapping=self.mapping
        )

    def reconfigure(self) -> ReconfigurationReport:
        """Run epoch reconfiguration and advance to the next epoch."""
        report = self.reconfigurator.run(self._epoch, self.mapping)
        self._epoch += 1
        return report
