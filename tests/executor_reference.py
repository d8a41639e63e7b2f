"""Per-transfer committer: the cross-shard executor's test oracle.

Production ``CrossShardExecutor.execute_batch`` runs an epoch as one
pass: it classifies the epoch's senders, runs the events of accounts
that might abort through the scalar store calls and commits every
other event in one ordered scatter per shard when the pass ends. This
module keeps the plain formulation it replaced, so property tests can
drive both through the same batches and compare state roots, nonces,
reports, ledgers, fees and bus statistics:

* every block first drains the bus and settles its due receipts, one
  ``credit_many`` per target shard, refunds one scalar ``credit`` each;
* then its transfers commit one at a time in transaction order
  (``_apply_transfers``): a scalar ``debit`` of ``value + fee`` that
  fails without side effects, then an intra-shard ``credit`` or a
  receipt, tx ids going to the successes in order.

It shares no structure with the pass it checks beyond the executor's
state (registry, mapping, ledger, transport, fee pool, tx-id counter).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.chain.crossshard import CrossShardExecutor, ExecutionReport
from repro.chain.transaction import DEFAULT_TRANSFER_AMOUNT, TransactionBatch
from repro.errors import ChainError, UnknownAccountError, ValidationError


class ReferenceExecutor(CrossShardExecutor):
    """``CrossShardExecutor`` committing block by block, transfer by transfer."""

    def _settle_due(self, block: int, report: ExecutionReport) -> None:
        """Drain the bus, then credit the due receipts per target shard
        (through the current mapping) in ``(due_block, tx_id)`` order."""
        if not self._transport.is_ideal:
            before_dups = self._transport.duplicates_deduped
            refunds = self._transport.poll(block, self._ledger)
            report.duplicates_deduped += (
                self._transport.duplicates_deduped - before_dups
            )
            for _tx_id, sender, amount in refunds:
                shard = self.mapping.shard_of(sender)
                self.registry.store_of(shard).credit(sender, amount)
                report.refunds_settled += 1
                report.refunded_value += amount
        due = self._ledger.pop_due(block)
        if len(due):
            current_targets = self.mapping.shards_of(due.receivers)
            for shard in np.unique(current_targets).tolist():
                on_shard = current_targets == shard
                self.registry.store_of(int(shard)).credit_many(
                    due.receivers[on_shard], due.amounts[on_shard]
                )
            report.deposits_settled += len(due)
            report.settled_value += float(due.amounts.sum())
            report.relay_latencies.extend((block - due.issued_blocks).tolist())
        report.credited_value = report.settled_value + report.refunded_value
        report.in_flight_delta = -report.credited_value

    def _apply_transfers(
        self,
        block: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        amounts: np.ndarray,
        sender_shards: np.ndarray,
        receiver_shards: np.ndarray,
        report: ExecutionReport,
        fees: Optional[np.ndarray] = None,
    ) -> None:
        """Withdraw/intra phase of one block, one transfer at a time,
        in transaction order. Fees accrue to the collected-fees pool."""
        stores = [self.registry.store_of(i) for i in range(self.registry.k)]
        receipt_rows: List[Tuple[int, int, int, float, int, int]] = []
        for i in range(len(senders)):
            sender_shard = int(sender_shards[i])
            amount = float(amounts[i])
            fee = float(fees[i]) if fees is not None else 0.0
            source = stores[sender_shard]
            try:
                source.debit(int(senders[i]), amount + fee)
            except ChainError:
                report.failed += 1
                continue
            report.debited_value += amount + fee
            if fee:
                self.collected_fees += fee
                report.fees_collected += fee
            receiver_shard = int(receiver_shards[i])
            if sender_shard == receiver_shard:
                source.credit(int(receivers[i]), amount)
                report.intra_executed += 1
                report.credited_value += amount
            else:
                receipt_rows.append(
                    (
                        self._next_tx_id,
                        int(senders[i]),
                        int(receivers[i]),
                        amount,
                        sender_shard,
                        receiver_shard,
                    )
                )
                report.withdraws += 1
                report.in_flight_delta += amount
            self._next_tx_id += 1
        if receipt_rows:
            columns = list(zip(*receipt_rows))
            self._transport.issue(
                self._ledger,
                block,
                tx_ids=np.asarray(columns[0], dtype=np.int64),
                senders=np.asarray(columns[1], dtype=np.int64),
                receivers=np.asarray(columns[2], dtype=np.int64),
                amounts=np.asarray(columns[3], dtype=np.float64),
                source_shards=np.asarray(columns[4], dtype=np.int64),
                target_shards=np.asarray(columns[5], dtype=np.int64),
            )

    def execute_batch(self, batch: TransactionBatch) -> List[ExecutionReport]:
        """Settle, then commit, each block of the batch in turn."""
        reports: List[ExecutionReport] = []
        if len(batch) == 0:
            return reports
        steps = np.diff(batch.blocks)
        if (steps < 0).any():
            back = int(np.argmax(steps < 0))
            raise ValidationError(
                f"batch blocks must be non-decreasing, got block "
                f"{int(batch.blocks[back + 1])} after {int(batch.blocks[back])}"
            )
        top = max(int(batch.senders.max()), int(batch.receivers.max()))
        if top >= self.mapping.n_accounts:
            raise UnknownAccountError(top)
        phi = self.mapping.as_array()
        sender_shards = phi[batch.senders]
        receiver_shards = phi[batch.receivers]
        amounts = batch.amounts(DEFAULT_TRANSFER_AMOUNT)
        fees = batch.fees
        boundaries = np.flatnonzero(steps != 0) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [len(batch)]))
        for start, stop in zip(starts, stops):
            report = self.settle(int(batch.blocks[start]))
            self._apply_transfers(
                report.block,
                batch.senders[start:stop],
                batch.receivers[start:stop],
                amounts[start:stop],
                sender_shards[start:stop],
                receiver_shards[start:stop],
                report,
                fees=fees[start:stop] if fees is not None else None,
            )
            reports.append(report)
        return reports

    def settle(self, block: int) -> ExecutionReport:
        report = ExecutionReport(block=block)
        self._settle_due(block, report)
        return report
