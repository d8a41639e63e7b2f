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
block's withdraw/intra phase runs one of two committers, picked by
block size:

* a block with fewer than ``_BATCH_MIN_BLOCK`` (96) transfers runs the
  scalar committer, a per-transfer loop whose fixed cost undercuts
  numpy's on small blocks — the benchmark's synthetic and replay
  workloads (8 to 50 transfers per block) take this path;
* a larger block — the paper's Ethereum range, ~150 transfers per
  block — runs the batched committer: it classifies the whole block at
  once, splits senders into a *fast* set (opening balance covers their
  total debits — every transfer succeeds regardless of in-block
  ordering) and a *slow* remainder (potential overdrafts, or senders
  funded by in-block credits), resolves the slow set with an exact
  sequential scan over only the transfers that touch it, and then
  applies all balance effects with one ordered scatter (``np.add.at``
  over the per-block delta stream, preserving the scalar per-account
  operation order).

Settlement is columnar at every block size: it pops the due prefix of
the receipt ledger via its due-block index and credits each target
shard with one scatter, in pinned ``(due_block, tx_id)`` order.

The two committers are element-for-element equivalent (the property
tests force one or the other by patching ``_BATCH_MIN_BLOCK``); the
equivalence is bit-exact whenever transfer amounts are integer-valued
(every trace, test and example in this repository — with arbitrary
floats, fast/slow classification can differ from the sequential
reference by one ulp on adversarial amounts). Conservation of total
balance — no value created or destroyed, in-flight receipts included —
is the key invariant, property-tested in
``tests/test_chain_crossshard.py``.

Receipt relay optionally routes through the simulated message plane
(:mod:`repro.chain.netsim`): with ``network=None`` receipts append to
the ledger directly with ``due_block = block + relay_delay_blocks``
(the reference path above); with a
:class:`~repro.chain.netsim.NetworkModel` they ride a
:class:`~repro.chain.netsim.MessageBus`, settlement keys off
*delivered* blocks, redelivered copies settle idempotently (receipt-id
dedup), and receipts whose delivery deadline passes are aborted with a
sender refund — all still conservation-exact (undelivered value counts
as in-flight). The ``ideal`` model is bit-identical to the direct path
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.chain.kernels import classify_kernel
from repro.chain.mapping import ShardMapping
from repro.chain.netsim import NetworkModel, ReceiptTransport
from repro.chain.receipts import ReceiptBatch, ReceiptLedger
from repro.chain.state import StateRegistry
from repro.chain.transaction import Transaction, TransactionBatch
from repro.errors import ChainError, UnknownAccountError, ValidationError

#: Below this many transfers the scalar committer beats the batched
#: one (fixed numpy overhead per block); both produce identical state.
_BATCH_MIN_BLOCK = 96


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
        if relay_delay_blocks < 0:
            raise ValidationError(
                f"relay_delay_blocks must be >= 0, got {relay_delay_blocks}"
            )
        self.registry = registry
        self.mapping = mapping
        self.relay_delay_blocks = relay_delay_blocks
        self._ledger = ReceiptLedger()
        #: Receipts ride the simulated message plane when a network
        #: model is attached; ``None`` keeps the direct-append path.
        self._transport = (
            ReceiptTransport(network, relay_delay_blocks)
            if network is not None
            else None
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
    def network_transport(self) -> Optional[ReceiptTransport]:
        """The receipt transport, when receipts ride a simulated network."""
        return self._transport

    def in_flight_value(self) -> float:
        """Value locked in receipts — ledger total plus value still on
        the wire (undelivered, unexpired messages) when receipts ride a
        simulated network."""
        total = self._ledger.total_amount
        if self._transport is not None:
            total += self._transport.pending_value()
        return total

    def in_flight_count(self) -> int:
        """Pending receipts: awaiting settlement or still on the wire."""
        count = len(self._ledger)
        if self._transport is not None:
            count += self._transport.pending_count()
        return count

    def total_value(self) -> float:
        """Resident balances + in-flight receipts + fees — conserved."""
        return (
            self.registry.total_balance()
            + self.in_flight_value()
            + self.collected_fees
        )

    # -- execution -----------------------------------------------------------------

    def execute_block(
        self,
        block: int,
        transactions: Union[Sequence[Transaction], TransactionBatch],
    ) -> ExecutionReport:
        """Execute one block: settle due receipts, then apply transfers.

        Deposits for receipts issued at block ``b`` become due at block
        ``b + relay_delay_blocks``. Transfers whose sender cannot cover
        the amount (plus fee) fail without side effects. ``transactions``
        may be a columnar :class:`TransactionBatch` (its ``values`` /
        ``fees`` columns, when present, supply per-transfer amounts and
        fees) or a sequence of :class:`Transaction` objects.
        """
        report = ExecutionReport(block=block)
        self._settle_due(block, report)
        if isinstance(transactions, TransactionBatch):
            senders = transactions.senders
            receivers = transactions.receivers
            amounts = transactions.amounts()
            fees = transactions.fees
        else:
            senders = np.array(
                [tx.sender for tx in transactions], dtype=np.int64
            )
            receivers = np.array(
                [tx.receiver for tx in transactions], dtype=np.int64
            )
            amounts = np.array(
                [tx.value for tx in transactions], dtype=np.float64
            )
            fees = np.array([tx.fee for tx in transactions], dtype=np.float64)
            if not fees.any():
                fees = None
        self._check_universe(senders, receivers)
        sender_shards, receiver_shards, _ = classify_kernel(
            senders, receivers, self.mapping.as_array()
        )
        self._apply_transfers(
            block, senders, receivers, amounts, sender_shards, receiver_shards,
            report, fees=fees,
        )
        return report

    def _check_universe(self, senders: np.ndarray, receivers: np.ndarray) -> None:
        if len(senders) == 0:
            return
        top = max(int(senders.max()), int(receivers.max()))
        if top >= self.mapping.n_accounts:
            raise UnknownAccountError(top)

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

        With a network transport attached, the bus is drained first:
        newly *delivered* receipts join the ledger keyed by their
        delivery block (so they settle in this pass), and expired ones
        abort with a refund to the sender — also via the current
        mapping, since the sender may have migrated since the withdraw.
        """
        if self._transport is not None and not self._transport.is_ideal:
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

    def _issue_receipts(
        self,
        block: int,
        tx_ids: np.ndarray,
        senders: np.ndarray,
        receivers: np.ndarray,
        amounts: np.ndarray,
        source_shards: np.ndarray,
        target_shards: np.ndarray,
    ) -> None:
        """Emit one block's withdraw receipts — ledger or message bus."""
        if self._transport is None:
            self._ledger.append_batch(
                tx_ids=tx_ids,
                senders=senders,
                receivers=receivers,
                amounts=amounts,
                source_shards=source_shards,
                target_shards=target_shards,
                issued_block=block,
                due_block=block + self.relay_delay_blocks,
            )
        else:
            self._transport.issue(
                self._ledger, block, tx_ids, senders, receivers, amounts,
                source_shards, target_shards,
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
        if len(senders) == 0:
            return
        if len(senders) >= _BATCH_MIN_BLOCK:
            self._apply_transfers_batched(
                block, senders, receivers, amounts, sender_shards,
                receiver_shards, report, fees,
            )
        else:
            self._apply_transfers_scalar(
                block, senders, receivers, amounts, sender_shards,
                receiver_shards, report, fees,
            )

    def _apply_transfers_batched(
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
        """Vectorised withdraw/intra phase over one block.

        Every account participating in the transfer phase lives on its
        mapped shard (intra credits go to the sender's shard, which for
        an intra transfer *is* the receiver's mapped shard), so the
        block gathers each unique account's balance once, resolves
        outcomes, applies one ordered delta stream, and scatters the
        results back per shard. A fee, when present, debits with its
        transfer (sender pays ``value + fee``) and accrues to the
        executor's collected-fees pool.
        """
        n = len(senders)
        debits = amounts if fees is None else amounts + fees
        intra = sender_shards == receiver_shards
        unique_accounts, inverse = np.unique(
            np.concatenate([senders, receivers]), return_inverse=True
        )
        sender_idx = inverse[:n]
        receiver_idx = inverse[n:]
        n_unique = len(unique_accounts)
        account_shard = np.empty(n_unique, dtype=np.int64)
        account_shard[sender_idx] = sender_shards
        account_shard[receiver_idx] = receiver_shards

        shard_groups = [
            (shard, account_shard == shard)
            for shard in np.unique(account_shard).tolist()
        ]
        opening = np.empty(n_unique, dtype=np.float64)
        for shard, group in shard_groups:
            opening[group] = self.registry.store_of(shard).balances_of(
                unique_accounts[group]
            )

        # Fast senders: opening balance covers their total debits, so
        # every transfer succeeds regardless of in-block credit order.
        # The rest — potential overdrafts — are resolved by an exact
        # sequential scan over the transfers that touch them (their own
        # debits plus any intra credit that could fund them).
        totals = np.bincount(sender_idx, weights=debits, minlength=n_unique)
        is_sender = np.zeros(n_unique, dtype=bool)
        is_sender[sender_idx] = True
        slow = is_sender & (opening < totals)
        success = np.ones(n, dtype=bool)
        if slow.any():
            relevant = np.flatnonzero(
                slow[sender_idx] | (intra & slow[receiver_idx])
            )
            balances = dict(
                zip(
                    np.flatnonzero(slow).tolist(),
                    opening[slow].tolist(),
                )
            )
            slow_l = slow.tolist()
            sender_idx_l = sender_idx.tolist()
            receiver_idx_l = receiver_idx.tolist()
            amounts_l = amounts.tolist()
            debits_l = debits.tolist() if fees is not None else amounts_l
            intra_l = intra.tolist()
            for i in relevant.tolist():
                s = sender_idx_l[i]
                debit = debits_l[i]
                if slow_l[s]:
                    balance = balances[s]
                    if debit > balance:
                        success[i] = False
                        continue
                    balances[s] = balance - debit
                if intra_l[i]:
                    r = receiver_idx_l[i]
                    if slow_l[r]:
                        balances[r] += amounts_l[i]

        # Ordered delta stream: (debit, intra-credit) per successful
        # transfer, in transaction order — np.add.at applies elements
        # sequentially, so each account's balance evolves through the
        # exact float operation sequence of the scalar reference.
        ok_senders = sender_idx[success]
        ok_amounts = amounts[success]
        ok_receivers = receiver_idx[success]
        ok_intra = intra[success]
        m = len(ok_senders)
        stream_idx = np.empty(2 * m, dtype=np.int64)
        stream_amt = np.empty(2 * m, dtype=np.float64)
        stream_idx[0::2] = ok_senders
        stream_amt[0::2] = -debits[success]
        stream_idx[1::2] = ok_receivers
        stream_amt[1::2] = ok_amounts
        keep = np.ones(2 * m, dtype=bool)
        keep[1::2] = ok_intra  # cross-shard credits ride receipts instead
        closing = opening.copy()
        np.add.at(closing, stream_idx[keep], stream_amt[keep])

        nonce_bumps = np.bincount(ok_senders, minlength=n_unique)
        touched = np.zeros(n_unique, dtype=bool)
        touched[ok_senders] = True
        touched[ok_receivers[ok_intra]] = True
        for shard, group in shard_groups:
            write = group & touched
            if write.any():
                self.registry.store_of(shard).write_back(
                    unique_accounts[write],
                    closing[write],
                    nonce_bumps[write],
                )

        # Withdraw-phase receipts, with tx ids assigned in transaction
        # order over the successful transfers (failed ones consume no id).
        ordinal = np.cumsum(success) - 1
        cross_ok = success & ~intra
        if cross_ok.any():
            self._issue_receipts(
                block,
                tx_ids=self._next_tx_id + ordinal[cross_ok],
                senders=senders[cross_ok],
                receivers=receivers[cross_ok],
                amounts=amounts[cross_ok],
                source_shards=sender_shards[cross_ok],
                target_shards=receiver_shards[cross_ok],
            )
        self._next_tx_id += m
        if fees is not None and m:
            collected = float(fees[success].sum())
            self.collected_fees += collected
            report.fees_collected += collected
        report.intra_executed += int(ok_intra.sum())
        report.withdraws += int(cross_ok.sum())
        report.failed += int(n - m)

    def _apply_transfers_scalar(
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
        """Per-transfer reference committer (equivalence baseline)."""
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
            self._issue_receipts(
                block,
                tx_ids=np.asarray(columns[0], dtype=np.int64),
                senders=np.asarray(columns[1], dtype=np.int64),
                receivers=np.asarray(columns[2], dtype=np.int64),
                amounts=np.asarray(columns[3], dtype=np.float64),
                source_shards=np.asarray(columns[4], dtype=np.int64),
                target_shards=np.asarray(columns[5], dtype=np.int64),
            )

    def execute_batch(
        self, batch: TransactionBatch, amount_per_tx: float = 1.0
    ) -> List[ExecutionReport]:
        """Execute a batch block by block.

        Amounts come from the batch's ``values`` column when present,
        else every transfer moves ``amount_per_tx`` units; a ``fees``
        column, when present, debits alongside (sender pays
        ``value + fee``). Shard classification runs once over the whole
        batch through the shared :func:`classify_kernel`; blocks are
        delimited by change points in the (already block-ordered)
        ``blocks`` column, exactly as the scalar bucketing loop did.
        """
        if amount_per_tx < 0:
            raise ValidationError(
                f"amount_per_tx must be >= 0, got {amount_per_tx}"
            )
        reports: List[ExecutionReport] = []
        if len(batch) == 0:
            return reports
        self._check_universe(batch.senders, batch.receivers)
        sender_shards, receiver_shards, _ = classify_kernel(
            batch.senders, batch.receivers, self.mapping.as_array()
        )
        if batch.values is not None:
            amounts = batch.values
        else:
            amounts = np.full(len(batch), amount_per_tx, dtype=np.float64)
        fees = batch.fees
        boundaries = np.flatnonzero(np.diff(batch.blocks) != 0) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [len(batch)]))
        for start, stop in zip(starts, stops):
            block = int(batch.blocks[start])
            report = ExecutionReport(block=block)
            self._settle_due(block, report)
            self._apply_transfers(
                block,
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

    def settle_all(self, from_block: int) -> ExecutionReport:
        """Force-settle every pending receipt (end-of-epoch flush).

        With a network transport the horizon extends to the last block
        at which the bus can still deliver or expire a message, so the
        flush also resolves everything on the wire (delivering what it
        can, refunding the rest).
        """
        horizon = from_block + self.relay_delay_blocks
        if self._transport is not None:
            horizon = max(horizon, self._transport.horizon())
        return self.execute_block(horizon, [])

    # -- migration interaction -------------------------------------------------------

    def apply_migration_batch(
        self, accounts: np.ndarray, to_shards: np.ndarray
    ) -> int:
        """Move migrated accounts' state between shards; returns bytes moved.

        The caller updates ``self.mapping`` (the ledger shares it).
        Residency resolves through the registry's index in one
        vectorised lookup and state moves as grouped per-shard
        gather/scatter (see :meth:`StateRegistry.migrate_batch`).
        Accounts must be unique within one batch — beacon commitment
        rounds guarantee it.
        """
        return self.registry.migrate_batch(accounts, to_shards)
