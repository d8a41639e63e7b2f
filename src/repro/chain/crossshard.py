"""Cross-shard transaction execution: the relay/receipt protocol.

This is the mechanism that makes cross-shard transactions cost
``eta > 1``: a transfer between shards cannot commit atomically in one
block, so it executes in two phases (Monoxide's relay transactions;
OmniLedger's lock/unlock is equivalent for value transfers):

1. **Withdraw** — the source shard debits the sender and emits a
   *receipt* committing to the transfer;
2. **Deposit** — the receipt is relayed to the target shard, which
   credits the receiver in a later block.

Both shards therefore spend consensus work on the same transfer, and
the receiver's funds arrive one (or more) relay latencies later — the
two costs the paper's difficulty parameter ``eta`` abstracts.

:class:`CrossShardExecutor` executes transaction batches against the
per-shard state stores and tracks in-flight receipts in a columnar
:class:`~repro.chain.receipts.ReceiptLedger` (read them as columns via
``executor.ledger.view()``; there is no per-receipt object). Each
block's withdraw/intra phase runs one committer, a per-transfer loop
in transaction order: a sender can spend an intra-shard credit that
lands earlier in the same block, a transfer whose sender cannot cover
``value + fee`` fails without side effects, and the result is exact
for any amounts.

Settlement is columnar: it pops the due prefix of the receipt ledger
via its due-block index and credits each target shard with one
scatter, in pinned ``(due_block, tx_id)`` order.

Conservation of total balance — no value created or destroyed,
in-flight receipts included — is the key invariant, property-tested in
``tests/test_chain_crossshard.py``.

Receipts always ride a :class:`~repro.chain.netsim.ReceiptTransport`
over the simulated message plane (:mod:`repro.chain.netsim`);
``network=None`` means the ``ideal`` model. On the ideal model a
receipt joins the ledger at issue with ``due_block = block +
relay_delay_blocks`` — the relay schedule the settlement golden
(``tests/test_golden_settlement.py``) pins. On a degraded model
settlement keys off *delivered* blocks, redelivered copies settle
idempotently (receipt-id dedup), and receipts whose delivery deadline
passes are aborted with a sender refund — all still
conservation-exact (undelivered value counts as in-flight).

Transfers enter through one door, :meth:`CrossShardExecutor.execute_batch`;
:meth:`~CrossShardExecutor.settle` runs a block's settlement alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.chain.kernels import classify_kernel
from repro.chain.mapping import ShardMapping
from repro.chain.netsim import NETWORK_IDEAL, NetworkModel, ReceiptTransport
from repro.chain.receipts import ReceiptLedger
from repro.chain.state import StateRegistry
from repro.chain.transaction import DEFAULT_TRANSFER_AMOUNT, TransactionBatch
from repro.errors import ChainError, UnknownAccountError, ValidationError

@dataclass
class ExecutionReport:
    """Statistics of one executed block of transactions."""

    block: int
    intra_executed: int = 0
    withdraws: int = 0
    deposits_settled: int = 0
    failed: int = 0
    #: Value credited by receipt settlement in this block.
    settled_value: float = 0.0
    #: Fees collected from successful transfers in this block.
    fees_collected: float = 0.0
    #: Expired receipts aborted in this block (value returned to the
    #: sender) and the value refunded — only ever nonzero when receipts
    #: ride a lossy simulated network.
    refunds_settled: int = 0
    refunded_value: float = 0.0
    #: Redelivered receipt copies discarded by the idempotent settle.
    duplicates_deduped: int = 0
    relay_latencies: List[int] = field(default_factory=list)

    @property
    def mean_relay_latency(self) -> float:
        """Mean blocks between withdraw and deposit (0 when none settled)."""
        if not self.relay_latencies:
            return 0.0
        return sum(self.relay_latencies) / len(self.relay_latencies)


class CrossShardExecutor:
    """Executes transfers against per-shard state under a mapping."""

    def __init__(
        self,
        registry: StateRegistry,
        mapping: ShardMapping,
        relay_delay_blocks: int = 1,
        network: Optional[NetworkModel] = None,
    ) -> None:
        if registry.k != mapping.k:
            raise ValidationError(
                f"registry has k={registry.k}, mapping has k={mapping.k}"
            )
        if registry.n_accounts < mapping.n_accounts:
            raise ValidationError(
                f"registry holds {registry.n_accounts} accounts, mapping "
                f"covers {mapping.n_accounts}"
            )
        if relay_delay_blocks < 0:
            raise ValidationError(
                f"relay_delay_blocks must be >= 0, got {relay_delay_blocks}"
            )
        self.registry = registry
        self.mapping = mapping
        self.relay_delay_blocks = relay_delay_blocks
        self._ledger = ReceiptLedger()
        self._transport = ReceiptTransport(
            network if network is not None else NetworkModel(NETWORK_IDEAL),
            relay_delay_blocks,
        )
        self._next_tx_id = 0
        #: Fees debited from senders on successful transfers. Fees
        #: leave circulating balances but not the system: they count
        #: toward :meth:`total_value`, keeping conservation exact for
        #: fee-carrying traces.
        self.collected_fees = 0.0

    # -- funding -----------------------------------------------------------------

    def fund(self, account: int, amount: float) -> None:
        """Mint ``amount`` to ``account`` on its resident shard (genesis)."""
        shard = self.mapping.shard_of(account)
        self.registry.store_of(shard).credit(account, amount)

    def fund_many(
        self, accounts: np.ndarray, amounts: Union[np.ndarray, float]
    ) -> None:
        """Mint to many accounts at once (columnar genesis funding).

        ``amounts`` may be a scalar (uniform supply) or a per-account
        array. Credits scatter per shard in one pass — the bulk path
        the unified engine uses instead of a per-account :meth:`fund`
        loop.
        """
        accounts = np.asarray(accounts, dtype=np.int64)
        if np.isscalar(amounts) or getattr(amounts, "ndim", 1) == 0:
            amounts = np.full(len(accounts), float(amounts), dtype=np.float64)
        else:
            amounts = np.asarray(amounts, dtype=np.float64)
        if amounts.shape != accounts.shape:
            raise ValidationError("accounts/amounts length mismatch")
        if len(amounts) and float(amounts.min()) < 0:
            raise ValidationError("funding amounts must be >= 0")
        shards = self.mapping.shards_of(accounts)
        for shard in np.unique(shards).tolist():
            on_shard = shards == shard
            self.registry.store_of(int(shard)).credit_many(
                accounts[on_shard], amounts[on_shard]
            )

    @property
    def ledger(self) -> ReceiptLedger:
        """The columnar pending-receipt ledger."""
        return self._ledger

    @property
    def network_transport(self) -> ReceiptTransport:
        """The transport every receipt rides."""
        return self._transport

    def in_flight_value(self) -> float:
        """Value locked in receipts — ledger total plus value still on
        the wire (undelivered, unexpired messages)."""
        return self._ledger.total_amount + self._transport.pending_value()

    def in_flight_count(self) -> int:
        """Pending receipts: awaiting settlement or still on the wire."""
        return len(self._ledger) + self._transport.pending_count()

    def total_value(self) -> float:
        """Resident balances + in-flight receipts + fees — conserved."""
        return (
            self.registry.total_balance()
            + self.in_flight_value()
            + self.collected_fees
        )

    # -- execution -----------------------------------------------------------------

    def _settle_due(self, block: int, report: ExecutionReport) -> None:
        """Settle receipts that have aged past the relay delay.

        The relayed deposit rides a later target-shard block. Deposits
        are credited in ``(due_block, tx_id)`` order — receipts of one
        target shard apply as one ordered columnar scatter.

        Deposits route through the *current* mapping (receipt
        forwarding): a receipt commits to the target shard computed at
        issue time, but if the receiver migrated while the receipt was
        in flight, the deposit follows it to the shard now holding the
        account instead of stranding value on the stale shard.

        On a degraded network the bus is drained first: newly
        *delivered* receipts join the ledger keyed by their delivery
        block (so they settle in this pass), and expired ones abort
        with a refund to the sender — also via the current mapping,
        since the sender may have migrated since the withdraw.
        """
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
        if len(due) == 0:
            return
        current_targets = self.mapping.shards_of(due.receivers)
        for shard in np.unique(current_targets).tolist():
            on_shard = current_targets == shard
            self.registry.store_of(int(shard)).credit_many(
                due.receivers[on_shard], due.amounts[on_shard]
            )
        report.deposits_settled += len(due)
        report.settled_value += float(due.amounts.sum())
        report.relay_latencies.extend(
            (block - due.issued_blocks).tolist()
        )

    # -- the block committer --------------------------------------------------------

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
        in transaction order (the in-block contract in the module
        docstring). Fees accrue to the collected-fees pool."""
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
            if fee:
                self.collected_fees += fee
                report.fees_collected += fee
            receiver_shard = int(receiver_shards[i])
            if sender_shard == receiver_shard:
                source.credit(int(receivers[i]), amount)
                report.intra_executed += 1
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
        """Execute a batch block by block: each block settles its due
        receipts, then applies its transfers.

        Amounts come from the batch's ``values`` column when present,
        else every transfer moves :data:`DEFAULT_TRANSFER_AMOUNT`
        units; a ``fees`` column, when present, debits alongside
        (sender pays ``value + fee``). Shard classification runs once
        over the whole batch through the shared :func:`classify_kernel`;
        blocks are delimited by change points in the ``blocks`` column,
        which must be non-decreasing (:class:`ValidationError`
        otherwise — time never runs backwards).
        """
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
        sender_shards, receiver_shards, _ = classify_kernel(
            batch.senders, batch.receivers, self.mapping.as_array()
        )
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
        """Settle the receipts due at ``block`` (a block with no transfers)."""
        report = ExecutionReport(block=block)
        self._settle_due(block, report)
        return report

    def settle_all(self, from_block: int) -> ExecutionReport:
        """Force-settle every pending receipt (end-of-epoch flush).

        The flush block is ``from_block + relay_delay_blocks``, pushed
        later on a degraded network to the last block at which the bus
        can still deliver or expire a message, so the flush also
        resolves everything on the wire (delivering what it can,
        refunding the rest).
        """
        return self.settle(
            max(
                from_block + self.relay_delay_blocks,
                self._transport.horizon(),
            )
        )
