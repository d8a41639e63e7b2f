"""Unit and property tests for the cross-shard relay protocol."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.crossshard import CrossShardExecutor
from repro.chain.mapping import ShardMapping
from repro.chain.netsim import NETWORK_IDEAL, NetworkModel
from repro.chain.state import StateRegistry
from repro.chain.transaction import (
    DEFAULT_TRANSFER_AMOUNT,
    Transaction,
    TransactionBatch,
)
from repro.errors import ValidationError


def executor_for(assignment, k, relay_delay=1):
    mapping = ShardMapping(np.asarray(assignment), k=k)
    registry = StateRegistry(k=k, n_accounts=mapping.n_accounts)
    return CrossShardExecutor(registry, mapping, relay_delay_blocks=relay_delay)


def run_block(executor, block, *transfers):
    """Execute ``transfers`` as block ``block``; return its report."""
    batch = TransactionBatch.from_transactions(
        [dataclasses.replace(t, block=block) for t in transfers]
    )
    (report,) = executor.execute_batch(batch)
    return report


class TestIntraShardExecution:
    def test_transfer_moves_funds(self):
        executor = executor_for([0, 0], k=2)
        executor.fund(0, 10.0)
        report = run_block(executor, 0, Transaction(0, 1, value=3.0))
        assert report.intra_executed == 1
        assert executor.registry.store_of(0).get(0).balance == 7.0
        assert executor.registry.store_of(0).get(1).balance == 3.0

    def test_underfunded_transfer_fails_cleanly(self):
        executor = executor_for([0, 0], k=2)
        executor.fund(0, 1.0)
        report = run_block(executor, 0, Transaction(0, 1, value=5.0))
        assert report.failed == 1
        assert executor.registry.store_of(0).get(0).balance == 1.0
        assert executor.registry.store_of(0).get(1).balance == 0.0


class TestCrossShardExecution:
    def test_two_phase_transfer(self):
        executor = executor_for([0, 1], k=2, relay_delay=1)
        executor.fund(0, 10.0)
        first = run_block(executor, 0, Transaction(0, 1, value=4.0))
        assert first.withdraws == 1
        # Funds are locked in flight, not yet delivered.
        assert executor.registry.store_of(0).get(0).balance == 6.0
        assert executor.registry.store_of(1).get(1).balance == 0.0
        assert executor.in_flight_value() == 4.0

        second = executor.settle(1)
        assert second.deposits_settled == 1
        assert second.relay_latencies == [1]
        assert executor.registry.store_of(1).get(1).balance == 4.0
        assert executor.in_flight_value() == 0.0

    def test_zero_delay_settles_next_call(self):
        executor = executor_for([0, 1], k=2, relay_delay=0)
        executor.fund(0, 2.0)
        run_block(executor, 0, Transaction(0, 1, value=2.0))
        report = executor.settle(0)
        assert report.deposits_settled == 1

    def test_longer_delay_holds_receipts(self):
        executor = executor_for([0, 1], k=2, relay_delay=3)
        executor.fund(0, 2.0)
        run_block(executor, 0, Transaction(0, 1, value=2.0))
        assert executor.settle(1).deposits_settled == 0
        assert executor.settle(2).deposits_settled == 0
        assert executor.settle(3).deposits_settled == 1

    def test_settle_all_flushes(self):
        executor = executor_for([0, 1], k=2, relay_delay=5)
        executor.fund(0, 2.0)
        run_block(executor, 0, Transaction(0, 1, value=2.0))
        report = executor.settle_all(from_block=0)
        assert report.deposits_settled == 1
        assert executor.in_flight_value() == 0.0

    def test_mean_relay_latency(self):
        executor = executor_for([0, 1], k=2, relay_delay=2)
        executor.fund(0, 5.0)
        run_block(executor, 0, Transaction(0, 1, value=1.0))
        run_block(executor, 1, Transaction(0, 1, value=1.0))
        report = executor.settle(3)
        assert report.deposits_settled == 2
        assert report.mean_relay_latency == pytest.approx(2.5)


@pytest.mark.parametrize("relay_delay", [0, 1, 3])
@pytest.mark.parametrize("from_block", [0, 5])
def test_ideal_settle_all_flushes_on_the_relay_schedule(relay_delay, from_block):
    """The ideal transport holds no message, so the flush lands exactly
    at ``from_block + relay_delay_blocks``, one relay delay after issue."""
    mapping = ShardMapping(np.array([0, 1]), k=2)
    executor = CrossShardExecutor(
        StateRegistry(k=2, n_accounts=2),
        mapping,
        relay_delay_blocks=relay_delay,
        network=NetworkModel(NETWORK_IDEAL),
    )
    executor.fund(0, 10.0)
    run_block(
        executor, from_block,
        Transaction(0, 1, value=2.0), Transaction(0, 1, value=3.0),
    )
    report = executor.settle_all(from_block=from_block)
    assert report.block == from_block + relay_delay
    assert report.relay_latencies == [relay_delay, relay_delay]
    assert report.settled_value == 5.0
    assert executor.in_flight_count() == 0


class TestBatchExecution:
    def test_blocks_grouped(self):
        executor = executor_for([0, 1, 0], k=2)
        executor.fund(0, 100.0)
        executor.fund(1, 100.0)
        batch = TransactionBatch(
            np.array([0, 0, 1]),
            np.array([2, 1, 0]),
            np.array([0, 0, 1]),
        )
        reports = executor.execute_batch(batch)
        assert [r.block for r in reports] == [0, 1]
        assert reports[0].intra_executed == 1  # 0 -> 2 on shard 0
        assert reports[0].withdraws == 1       # 0 -> 1 cross

    def test_empty_batch(self):
        executor = executor_for([0, 1], k=2)
        assert executor.execute_batch(TransactionBatch.empty()) == []

    def test_valueless_batch_moves_default_amount_whatever_the_split(self):
        """A batch without a values column moves DEFAULT_TRANSFER_AMOUNT
        per transfer, with the same reports and in-flight value whether
        it runs in one call or one call per block."""
        batch = TransactionBatch(
            np.array([0, 0, 2, 1, 0]),
            np.array([1, 2, 1, 2, 1]),
            np.array([0, 0, 1, 1, 3]),
        )

        def run(batches):
            executor = executor_for([0, 1, 0], k=2, relay_delay=2)
            executor.fund_many(np.arange(3), 10.0)
            reports = [r for b in batches for r in executor.execute_batch(b)]
            return executor, reports

        whole, whole_reports = run([batch])
        split, split_reports = run([batch[0:2], batch[2:4], batch[4:5]])
        assert whole_reports == split_reports
        assert [r.block for r in whole_reports] == [0, 1, 3]
        assert [r.withdraws for r in whole_reports] == [1, 2, 1]
        # Block 3 settles the three receipts of blocks 0 and 1; block
        # 3's own receipt is still in flight.
        assert whole_reports[2].settled_value == 3 * DEFAULT_TRANSFER_AMOUNT
        assert whole.in_flight_value() == DEFAULT_TRANSFER_AMOUNT
        assert split.in_flight_value() == whole.in_flight_value()
        assert whole.total_value() == 30.0

    def test_blocks_running_backwards_rejected(self):
        executor = executor_for([0, 1], k=2)
        executor.fund(0, 10.0)
        batch = TransactionBatch(
            np.array([0, 0, 0]), np.array([1, 1, 1]), np.array([5, 3, 5])
        )
        with pytest.raises(ValidationError, match="block 3 after 5"):
            executor.execute_batch(batch)
        # Rejected before any block ran.
        assert executor.registry.store_of(0).get(0).balance == 10.0
        assert executor.in_flight_count() == 0


class TestInBlockOrder:
    """Transfers in one block commit in transaction order: a sender may
    spend an intra-shard credit received earlier in the block, never one
    received later, and must cover ``value + fee``."""

    @staticmethod
    def _run(*transfers):
        # Accounts 0 and 1 share shard 0; 2 lives on shard 1. Account 1
        # opens with nothing.
        executor = executor_for([0, 0, 1], k=2)
        executor.fund(0, 10.0)
        return executor, run_block(executor, 0, *transfers)

    def test_spend_before_intra_credit_fails(self):
        executor, report = self._run(
            Transaction(1, 2, value=4.0), Transaction(0, 1, value=5.0)
        )
        assert (report.failed, report.withdraws, report.intra_executed) == (
            1, 0, 1,
        )
        assert executor.registry.store_of(0).get(1).balance == 5.0
        assert executor.registry.store_of(0).get(1).nonce == 0

    def test_spend_after_intra_credit_succeeds(self):
        executor, report = self._run(
            Transaction(0, 1, value=5.0), Transaction(1, 2, value=4.0)
        )
        assert (report.failed, report.withdraws, report.intra_executed) == (
            0, 1, 1,
        )
        assert executor.registry.store_of(0).get(1).balance == 1.0
        assert executor.registry.store_of(0).get(1).nonce == 1
        assert executor.in_flight_value() == 4.0

    def test_value_without_fee_headroom_fails(self):
        executor, report = self._run(
            Transaction(0, 1, value=5.0), Transaction(1, 2, value=4.0, fee=2.0)
        )
        assert (report.failed, report.withdraws, report.intra_executed) == (
            1, 0, 1,
        )
        assert executor.collected_fees == 0.0
        assert report.fees_collected == 0.0
        assert executor.registry.store_of(0).get(1).balance == 5.0
        assert executor.total_value() == 10.0


class TestMigrationInteraction:
    def test_state_follows_allocation(self):
        executor = executor_for([0, 0], k=2)
        executor.fund(0, 8.0)
        moved = executor.registry.migrate_batch(np.array([0]), np.array([1]))
        executor.mapping.assign(0, 1)
        assert moved > 0
        assert executor.registry.locate(0) == 1
        # Transfers now execute from the new shard.
        report = run_block(executor, 0, Transaction(0, 1, value=1.0))
        assert report.withdraws == 1  # 1 still lives on shard 0

    def test_migrating_unknown_account_is_noop(self):
        executor = executor_for([0, 0], k=2)
        assert executor.registry.migrate_batch(
            np.array([1]), np.array([1])
        ) == 0


class TestMigrationConservation:
    """Migrations interleaved with pending receipts move state and
    mapping while receipts naming the old shard are still in flight;
    no value may be created or destroyed at any step."""

    @staticmethod
    def _assert_conserved(executor, genesis):
        # Integer amounts keep every float sum exact.
        assert executor.total_value() == genesis
        assert executor.in_flight_value() == float(
            executor.ledger.view().amounts.sum()
        )

    @settings(max_examples=25, deadline=None)
    @given(
        n_accounts=st.integers(4, 12),
        k=st.integers(2, 4),
        seed=st.integers(0, 5_000),
    )
    def test_migrations_interleaved_with_pending_receipts(
        self, n_accounts, k, seed
    ):
        rng = np.random.default_rng(seed)
        executor = executor_for(
            rng.integers(0, k, size=n_accounts), k, relay_delay=2
        )
        for account in range(n_accounts):
            executor.fund(account, 20.0)
        genesis = executor.total_value()

        block = 0
        for _ in range(6):
            n_tx = int(rng.integers(1, 120))
            senders = rng.integers(0, n_accounts, size=n_tx)
            receivers = rng.integers(0, n_accounts, size=n_tx)
            amounts = rng.integers(0, 5, size=n_tx).astype(np.float64)
            executor.execute_batch(
                TransactionBatch(
                    senders, receivers, np.full(n_tx, block), amounts
                )
            )
            self._assert_conserved(executor, genesis)
            account = int(rng.integers(0, n_accounts))
            to_shard = int(rng.integers(0, k))
            executor.registry.migrate_batch(
                np.array([account]), np.array([to_shard])
            )
            executor.mapping.assign(account, to_shard)
            self._assert_conserved(executor, genesis)
            block += int(rng.integers(1, 3))
        executor.settle_all(from_block=block)
        self._assert_conserved(executor, genesis)
        assert executor.in_flight_count() == 0


@settings(max_examples=40, deadline=None)
@given(
    n_accounts=st.integers(2, 12),
    k=st.integers(1, 4),
    n_tx=st.integers(0, 40),
    relay_delay=st.integers(0, 3),
    seed=st.integers(0, 400),
)
def test_value_conservation(n_accounts, k, n_tx, relay_delay, seed):
    """Property: resident + in-flight value is conserved through any
    interleaving of transfers, failures, and relay settlement."""
    rng = np.random.default_rng(seed)
    mapping = ShardMapping(rng.integers(0, k, size=n_accounts), k=k)
    registry = StateRegistry(k=k, n_accounts=n_accounts)
    executor = CrossShardExecutor(registry, mapping, relay_delay_blocks=relay_delay)
    for account in range(n_accounts):
        executor.fund(account, float(rng.integers(0, 20)))
    initial_value = executor.total_value()

    block = 0
    for _ in range(n_tx):
        sender, receiver = rng.integers(0, n_accounts, size=2)
        if sender == receiver:
            continue
        amount = float(rng.integers(0, 10))
        run_block(
            executor, block, Transaction(int(sender), int(receiver), value=amount)
        )
        block += int(rng.integers(0, 3))
    executor.settle_all(from_block=block)

    assert executor.total_value() == pytest.approx(initial_value)
    assert executor.in_flight_value() == 0.0
    # No balance went negative anywhere.
    for shard in range(k):
        store = registry.store_of(shard)
        for account in store.accounts():
            assert store.get(account).balance >= 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_fund_many_rejects_bad_amounts_before_any_credit(bad):
    executor = executor_for([0, 1, 0], k=2, relay_delay=2)
    with pytest.raises(ValidationError, match="finite and >= 0"):
        executor.fund_many(np.arange(3), np.array([1.0, 2.0, bad]))
    with pytest.raises(ValidationError, match="finite and >= 0"):
        executor.fund_many(np.arange(3), bad)
    assert executor.total_value() == 0.0

