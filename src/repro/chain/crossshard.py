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

Each :meth:`CrossShardExecutor.execute_batch` call (one epoch) is one
pass. The pass keeps the per-block skeleton: every block drains the
bus, settles its due receipts, then applies its transfers in
transaction order and issues its receipts, tx ids going to the block's
successes in order. A sender can spend an intra-shard credit that lands
earlier in the same block, a transfer whose sender cannot cover
``value + fee`` fails without side effects, and the result is exact for
any amounts. The pass first classifies the epoch's senders: a *safe*
sender (homed on its mapped shard, integer-valued debits summing below
2**53, opening balance covering them all) can never abort, since
credits only add. Every other account is *exact*. Events that touch an
exact account — its debits and every credit it receives — run through
the scalar store calls in sequence order inside the block loop; all
other debits, nonce bumps, fees and credits are gathered and committed
when the pass ends as one ordered scatter per shard. Each account's
events keep their order, so state roots equal a per-transfer commit's
bit for bit. The per-transfer committer lives on as the test oracle
``tests/executor_reference.py``. In-flight receipts sit in a columnar
:class:`~repro.chain.receipts.ReceiptLedger` (read them as columns via
``executor.ledger.view()``; there is no per-receipt object), popped in
pinned ``(due_block, tx_id)`` order.

Conservation of total balance — no value created or destroyed,
in-flight receipts included — is the key invariant, property-tested in
``tests/test_chain_crossshard.py``. Each block's report carries its
deltas (debited, credited, fees collected, in-flight change), which sum
to zero.

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
from typing import List, Optional, Sequence, Union

import numpy as np

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
    #: Block-boundary conservation deltas: value debited from senders
    #: (``value + fee``), value credited to balances (intra transfers,
    #: deposits, refunds) and the change of in-flight value (withdrawn
    #: minus settled minus refunded). With ``fees_collected`` they sum
    #: to zero in every block.
    debited_value: float = 0.0
    credited_value: float = 0.0
    in_flight_delta: float = 0.0
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

    def _exact_accounts(
        self, senders: np.ndarray, debits: np.ndarray
    ) -> Optional[np.ndarray]:
        """Flag the epoch's *exact* accounts (``None`` when there are none).

        A sender is *safe* when it is homed on its mapped shard, every
        debit it sends (``amount + fee``) is integer-valued, their sum
        stays below 2**53 and its opening balance covers that sum. Such
        a sender can never abort this epoch, however its credits
        interleave: credits only add, every partial sum of its debits is
        exact and rounding is monotone, so each debit finds the rest of
        the sum still covered. Every other sender is exact. The flags
        span the account universe, so any credit's receiver looks up.
        """
        ids, inverse = np.unique(senders, return_inverse=True)
        totals = np.bincount(inverse, weights=debits, minlength=len(ids))
        fractional = np.bincount(
            inverse, weights=debits != np.floor(debits), minlength=len(ids)
        )
        homes = self.registry.locate_many(ids)
        safe = (
            (homes == self.mapping.as_array()[ids])
            & (fractional == 0)
            & (totals < 2.0**53)
        )
        balances = np.zeros(len(ids), dtype=np.float64)
        for shard in np.unique(homes[safe]).tolist():
            on_shard = safe & (homes == shard)
            balances[on_shard] = self.registry.store_of(shard).balances_many(
                ids[on_shard]
            )
        safe &= balances >= totals
        if safe.all():
            return None
        exact = np.zeros(self.mapping.n_accounts, dtype=bool)
        exact[ids[~safe]] = True
        return exact

    def execute_batch(self, batch: TransactionBatch) -> List[ExecutionReport]:
        """Execute a batch (one epoch) in one pass, block by block.

        Each block drains the bus, settles its due receipts, then
        applies its transfers in transaction order and issues its
        receipts; balances commit when the pass ends (module
        docstring). Amounts come from the batch's ``values`` column
        when present, else every transfer moves
        :data:`DEFAULT_TRANSFER_AMOUNT` units; a ``fees`` column, when
        present, debits alongside (sender pays ``value + fee``). Shard
        lookup in phi runs once over the whole batch; blocks are
        delimited by change points in the ``blocks`` column, which must
        be non-decreasing (:class:`ValidationError` otherwise — time
        never runs backwards). A write routed off an account's home raises
        :class:`~repro.errors.ResidencyError` and leaves the pass's
        gathered events uncommitted: the executor is then unusable.
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
        phi = self.mapping.as_array()
        epoch = _EpochPass(
            self,
            batch.senders,
            batch.receivers,
            batch.amounts(DEFAULT_TRANSFER_AMOUNT),
            batch.fees,
            phi[batch.senders],
            phi[batch.receivers],
        )
        boundaries = np.flatnonzero(steps != 0) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [len(batch)]))
        for start, stop in zip(starts.tolist(), stops.tolist()):
            report = ExecutionReport(block=int(batch.blocks[start]))
            epoch.settle(report)
            epoch.transfer(report, start, stop)
            reports.append(report)
        epoch.commit(reports, starts)
        return reports

    def settle(self, block: int) -> ExecutionReport:
        """Settle the receipts due at ``block`` (a block with no transfers)."""
        report = ExecutionReport(block=block)
        empty = np.zeros(0, dtype=np.int64)
        epoch = _EpochPass(self, empty, empty, np.zeros(0), None, empty, empty)
        epoch.settle(report)
        epoch.commit()
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


def _accumulate(total: float, values: np.ndarray) -> float:
    """``total + v0 + v1 + ...`` added left to right, as a scalar loop adds."""
    if not len(values):
        return total
    return float(np.cumsum(np.concatenate(([total], values)))[-1])


class _EpochPass:
    """One ``execute_batch`` pass: block skeleton, exact scan, bulk commit.

    Events of *exact* accounts (:meth:`CrossShardExecutor._exact_accounts`)
    — their debits and every credit they receive — run through the
    scalar store calls in sequence order as the blocks go by. Every
    other debit, nonce bump, intra credit, deposit and refund joins one
    stream in sequence order, committed by :meth:`commit` as one ordered
    scatter per shard. Events on different accounts commute and each
    account's events keep their order, so balances, nonces and state
    roots equal a per-transfer commit's bit for bit.
    """

    def __init__(
        self,
        executor: CrossShardExecutor,
        senders: np.ndarray,
        receivers: np.ndarray,
        amounts: np.ndarray,
        fees: Optional[np.ndarray],
        sender_shards: np.ndarray,
        receiver_shards: np.ndarray,
    ) -> None:
        registry = executor.registry
        self.executor = executor
        self.stores = [registry.store_of(i) for i in range(registry.k)]
        self.senders = senders
        self.receivers = receivers
        self.amounts = amounts
        self.fees = fees
        self.sender_shards = sender_shards.astype(np.int64, copy=False)
        self.receiver_shards = receiver_shards.astype(np.int64, copy=False)
        self.debits = amounts if fees is None else amounts + fees
        self.intra = sender_shards == receiver_shards
        self.cross = ~self.intra
        self.ok = np.ones(len(senders), dtype=bool)
        # Transfer events in transaction order: slot 2i is transfer i's
        # debit, slot 2i+1 its intra-shard credit; ``gather`` marks the
        # ones the bulk commit applies.
        self.tx_accounts = np.column_stack((senders, receivers)).ravel()
        self.tx_deltas = np.column_stack((-self.debits, amounts)).ravel()
        gather = np.column_stack((np.ones(len(senders), dtype=bool), self.intra))
        self.exact = executor._exact_accounts(senders, self.debits)
        self.scan = np.zeros(0, dtype=np.int64)
        if self.exact is not None:
            self.exact_senders = self.exact[senders]
            self.exact_receivers = self.exact[receivers]
            gather[:, 0] = ~self.exact_senders
            gather[:, 1] &= ~self.exact_receivers
            self.scan = np.flatnonzero(
                self.exact_senders | (self.intra & self.exact_receivers)
            )
        self.gather = gather.ravel()
        self.accounts: List[np.ndarray] = []
        self.deltas: List[np.ndarray] = []

    def settle(self, report: ExecutionReport) -> None:
        """Drain the bus, then settle the receipts due at ``report.block``.

        Deposits are credited in ``(due_block, tx_id)`` order and route
        through the *current* mapping (receipt forwarding): a receipt
        commits to the target shard computed at issue time, but if the
        receiver migrated while the receipt was in flight, the deposit
        follows it to the shard now holding the account instead of
        stranding value on the stale shard.

        On a degraded network the bus is drained first: newly
        *delivered* receipts join the ledger keyed by their delivery
        block (so they settle in this pass), and expired ones abort
        with a refund to the sender — also via the current mapping,
        since the sender may have migrated since the withdraw.
        """
        executor = self.executor
        transport = executor._transport
        if not transport.is_ideal:
            before_dups = transport.duplicates_deduped
            refunds = transport.poll(report.block, executor._ledger)
            report.duplicates_deduped += (
                transport.duplicates_deduped - before_dups
            )
            for _tx_id, _sender, amount in refunds:
                report.refunds_settled += 1
                report.refunded_value += amount
            if refunds:
                self._credit(
                    np.array([row[1] for row in refunds], dtype=np.int64),
                    np.array([row[2] for row in refunds], dtype=np.float64),
                )
        due = executor._ledger.pop_due(report.block)
        if len(due):
            self._credit(due.receivers, due.amounts)
            report.deposits_settled += len(due)
            report.settled_value += float(due.amounts.sum())
            report.relay_latencies.extend(
                (report.block - due.issued_blocks).tolist()
            )
        report.credited_value = report.settled_value + report.refunded_value
        report.in_flight_delta = -report.credited_value

    def _credit(self, accounts: np.ndarray, amounts: np.ndarray) -> None:
        """Credit settled receipts on the shards phi maps them to now."""
        if self.exact is not None:
            scalar = self.exact[accounts]
            if scalar.any():
                shards = self.executor.mapping.shards_of(accounts[scalar])
                for account, amount, shard in zip(
                    accounts[scalar].tolist(),
                    amounts[scalar].tolist(),
                    shards.tolist(),
                ):
                    self.stores[shard].credit(account, amount)
                accounts, amounts = accounts[~scalar], amounts[~scalar]
        self.accounts.append(accounts)
        self.deltas.append(amounts)

    def transfer(self, report: ExecutionReport, start: int, stop: int) -> None:
        """Apply transfers ``[start, stop)`` and issue the block's receipts.

        Tx ids go to the block's successes in transaction order.
        """
        executor = self.executor
        failed = 0
        if len(self.scan):
            lo, hi = np.searchsorted(self.scan, (start, stop)).tolist()
            for i in self.scan[lo:hi].tolist():
                failed += self._scan(i)
        ok = self.ok[start:stop]
        rows = np.flatnonzero(ok & self.cross[start:stop])
        tx_ids = executor._next_tx_id + (
            (np.cumsum(ok) - 1)[rows] if failed else rows
        )
        executor._next_tx_id += stop - start - failed
        rows += start
        report.failed = failed
        report.withdraws = len(rows)
        report.intra_executed = stop - start - failed - len(rows)
        if self.fees is not None:
            report.fees_collected = _accumulate(0.0, self.fees[start:stop][ok])
        if len(rows):
            executor._transport.issue(
                executor._ledger,
                report.block,
                tx_ids=tx_ids,
                senders=self.senders[rows],
                receivers=self.receivers[rows],
                amounts=self.amounts[rows],
                source_shards=self.sender_shards[rows],
                target_shards=self.receiver_shards[rows],
            )
        events = slice(2 * start, 2 * stop)
        keep = self.gather[events]
        self.accounts.append(self.tx_accounts[events][keep])
        self.deltas.append(self.tx_deltas[events][keep])

    def _scan(self, i: int) -> int:
        """Run transfer ``i``'s exact events through the scalar store
        calls; 1 when its debit fails (no side effects), else 0."""
        store = self.stores[int(self.sender_shards[i])]
        if self.exact_senders[i]:
            try:
                store.debit(int(self.senders[i]), float(self.debits[i]))
            except ChainError:
                self.ok[i] = False
                self.gather[2 * i + 1] = False
                return 1
        if self.intra[i] and self.exact_receivers[i]:
            store.credit(int(self.receivers[i]), float(self.amounts[i]))
        return 0

    def commit(
        self,
        reports: Sequence[ExecutionReport] = (),
        starts: Optional[np.ndarray] = None,
    ) -> None:
        """Apply the gathered stream, collect the fees and add each
        block's transfer deltas to its report (``starts``: the block's
        first row)."""
        executor = self.executor
        if self.fees is not None:
            executor.collected_fees = _accumulate(
                executor.collected_fees, self.fees[self.ok]
            )
        if self.accounts:
            accounts = np.concatenate(self.accounts)
            deltas = np.concatenate(self.deltas)
            shards = executor.mapping.shards_of(accounts)
            safe = self.gather[0::2]
            debited = self.senders[safe]
            debited_shards = self.sender_shards[safe]
            for shard in np.unique(shards).tolist():
                on_shard = shards == shard
                self.stores[shard].apply_many(
                    accounts[on_shard],
                    deltas[on_shard],
                    debited[debited_shards == shard],
                )
        if reports:
            ok = self.ok
            debited_value, intra_value, withdrawn_value = (
                np.add.reduceat(np.where(mask, values, 0.0), starts).tolist()
                for mask, values in (
                    (ok, self.debits),
                    (ok & self.intra, self.amounts),
                    (ok & self.cross, self.amounts),
                )
            )
            for report, debited, intra, withdrawn in zip(
                reports, debited_value, intra_value, withdrawn_value
            ):
                report.debited_value = debited
                report.credited_value += intra
                report.in_flight_delta += withdrawn
