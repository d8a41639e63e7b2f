"""Unit and property tests for the cross-shard relay protocol."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from committer import force_committer
from repro.chain.crossshard import CrossShardExecutor
from repro.chain.mapping import ShardMapping
from repro.chain.state import StateRegistry
from repro.chain.transaction import Transaction, TransactionBatch
from repro.errors import ValidationError


def executor_for(assignment, k, relay_delay=1):
    mapping = ShardMapping(np.asarray(assignment), k=k)
    registry = StateRegistry(k=k, n_accounts=mapping.n_accounts)
    return CrossShardExecutor(registry, mapping, relay_delay_blocks=relay_delay)


class TestIntraShardExecution:
    def test_transfer_moves_funds(self):
        executor = executor_for([0, 0], k=2)
        executor.fund(0, 10.0)
        report = executor.execute_block(0, [Transaction(0, 1, value=3.0)])
        assert report.intra_executed == 1
        assert executor.registry.store_of(0).get(0).balance == 7.0
        assert executor.registry.store_of(0).get(1).balance == 3.0

    def test_underfunded_transfer_fails_cleanly(self):
        executor = executor_for([0, 0], k=2)
        executor.fund(0, 1.0)
        report = executor.execute_block(0, [Transaction(0, 1, value=5.0)])
        assert report.failed == 1
        assert executor.registry.store_of(0).get(0).balance == 1.0
        assert executor.registry.store_of(0).get(1).balance == 0.0


class TestCrossShardExecution:
    def test_two_phase_transfer(self):
        executor = executor_for([0, 1], k=2, relay_delay=1)
        executor.fund(0, 10.0)
        first = executor.execute_block(0, [Transaction(0, 1, value=4.0)])
        assert first.withdraws == 1
        # Funds are locked in flight, not yet delivered.
        assert executor.registry.store_of(0).get(0).balance == 6.0
        assert executor.registry.store_of(1).get(1).balance == 0.0
        assert executor.in_flight_value() == 4.0

        second = executor.execute_block(1, [])
        assert second.deposits_settled == 1
        assert second.relay_latencies == [1]
        assert executor.registry.store_of(1).get(1).balance == 4.0
        assert executor.in_flight_value() == 0.0

    def test_zero_delay_settles_next_call(self):
        executor = executor_for([0, 1], k=2, relay_delay=0)
        executor.fund(0, 2.0)
        executor.execute_block(0, [Transaction(0, 1, value=2.0)])
        report = executor.execute_block(0, [])
        assert report.deposits_settled == 1

    def test_longer_delay_holds_receipts(self):
        executor = executor_for([0, 1], k=2, relay_delay=3)
        executor.fund(0, 2.0)
        executor.execute_block(0, [Transaction(0, 1, value=2.0)])
        assert executor.execute_block(1, []).deposits_settled == 0
        assert executor.execute_block(2, []).deposits_settled == 0
        assert executor.execute_block(3, []).deposits_settled == 1

    def test_settle_all_flushes(self):
        executor = executor_for([0, 1], k=2, relay_delay=5)
        executor.fund(0, 2.0)
        executor.execute_block(0, [Transaction(0, 1, value=2.0)])
        report = executor.settle_all(from_block=0)
        assert report.deposits_settled == 1
        assert executor.in_flight_value() == 0.0

    def test_mean_relay_latency(self):
        executor = executor_for([0, 1], k=2, relay_delay=2)
        executor.fund(0, 5.0)
        executor.execute_block(0, [Transaction(0, 1, value=1.0)])
        executor.execute_block(1, [Transaction(0, 1, value=1.0)])
        report = executor.execute_block(3, [])
        assert report.deposits_settled == 2
        assert report.mean_relay_latency == pytest.approx(2.5)


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
        reports = executor.execute_batch(batch, amount_per_tx=1.0)
        assert [r.block for r in reports] == [0, 1]
        assert reports[0].intra_executed == 1  # 0 -> 2 on shard 0
        assert reports[0].withdraws == 1       # 0 -> 1 cross

    def test_empty_batch(self):
        executor = executor_for([0, 1], k=2)
        assert executor.execute_batch(TransactionBatch.empty()) == []

    def test_negative_amount_rejected(self):
        executor = executor_for([0, 1], k=2)
        with pytest.raises(ValidationError):
            executor.execute_batch(TransactionBatch.empty(), amount_per_tx=-1.0)


class TestMigrationInteraction:
    def test_state_follows_allocation(self):
        executor = executor_for([0, 0], k=2)
        executor.fund(0, 8.0)
        moved = executor.apply_migration_batch(np.array([0]), np.array([1]))
        executor.mapping.assign(0, 1)
        assert moved > 0
        assert executor.registry.locate(0) == 1
        # Transfers now execute from the new shard.
        report = executor.execute_block(0, [Transaction(0, 1, value=1.0)])
        assert report.withdraws == 1  # 1 still lives on shard 0

    def test_migrating_unknown_account_is_noop(self):
        executor = executor_for([0, 0], k=2)
        assert executor.apply_migration_batch(
            np.array([1]), np.array([1])
        ) == 0


class TestBatchedScalarEquivalence:
    """The batched committer must be indistinguishable from the scalar
    one: same balances, nonces, receipts, settlement order and reports,
    across self-transfers, overdrafts and migrations interleaved with
    pending receipts. Each twin runs every block, whatever its size,
    through the committer it is named after."""

    @staticmethod
    def _twin_executors(assignment, k, relay_delay):
        return [
            CrossShardExecutor(
                StateRegistry(k=k, n_accounts=len(assignment)),
                ShardMapping(assignment.copy(), k=k),
                relay_delay_blocks=relay_delay,
            )
            for _ in range(2)
        ]

    @staticmethod
    def _assert_identical(batched, scalar, k):
        for shard in range(k):
            assert (
                batched.registry.store_of(shard).state_root()
                == scalar.registry.store_of(shard).state_root()
            )
        pending_b, pending_s = batched.ledger.view(), scalar.ledger.view()
        for column in pending_b._fields:
            assert np.array_equal(
                getattr(pending_b, column), getattr(pending_s, column)
            ), column
        assert batched.in_flight_value() == scalar.in_flight_value()
        # Satellite: the O(1) running in-flight total equals the value
        # recomputed from the pending columns.
        assert batched.in_flight_value() == pytest.approx(
            float(batched.ledger.view().amounts.sum())
        )

    @settings(max_examples=60, deadline=None)
    @given(
        n_accounts=st.integers(2, 16),
        k=st.integers(1, 4),
        relay_delay=st.integers(0, 3),
        seed=st.integers(0, 10_000),
    )
    def test_randomized_batches(self, n_accounts, k, relay_delay, seed):
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, k, size=n_accounts)
        batched, scalar = self._twin_executors(assignment, k, relay_delay)
        for account in range(n_accounts):
            amount = float(rng.integers(0, 12))
            batched.fund(account, amount)
            scalar.fund(account, amount)

        n_tx = int(rng.integers(0, 700))
        # Self-transfers included; small balances force overdrafts.
        senders = rng.integers(0, n_accounts, size=n_tx)
        receivers = rng.integers(0, n_accounts, size=n_tx)
        amounts = rng.integers(0, 7, size=n_tx).astype(np.float64)
        blocks = np.sort(rng.integers(0, 4, size=n_tx))
        batch = TransactionBatch(senders, receivers, blocks, amounts)

        with force_committer(batched=True):
            reports_b = batched.execute_batch(batch)
        with force_committer(batched=False):
            reports_s = scalar.execute_batch(batch)
        assert len(reports_b) == len(reports_s)
        for rb, rs in zip(reports_b, reports_s):
            assert (
                rb.block, rb.intra_executed, rb.withdraws,
                rb.deposits_settled, rb.failed, rb.relay_latencies,
            ) == (
                rs.block, rs.intra_executed, rs.withdraws,
                rs.deposits_settled, rs.failed, rs.relay_latencies,
            )
        self._assert_identical(batched, scalar, k)
        final_b = batched.settle_all(from_block=4)
        final_s = scalar.settle_all(from_block=4)
        assert final_b.deposits_settled == final_s.deposits_settled
        assert final_b.relay_latencies == final_s.relay_latencies
        self._assert_identical(batched, scalar, k)

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
        assignment = rng.integers(0, k, size=n_accounts)
        batched, scalar = self._twin_executors(assignment, k, relay_delay=2)
        for account in range(n_accounts):
            batched.fund(account, 20.0)
            scalar.fund(account, 20.0)

        block = 0
        for _ in range(6):
            n_tx = int(rng.integers(1, 120))
            senders = rng.integers(0, n_accounts, size=n_tx)
            receivers = rng.integers(0, n_accounts, size=n_tx)
            amounts = rng.integers(0, 5, size=n_tx).astype(np.float64)
            batch = TransactionBatch(
                senders, receivers, np.full(n_tx, block), amounts
            )
            with force_committer(batched=True):
                batched.execute_batch(batch)
            with force_committer(batched=False):
                scalar.execute_batch(batch)
            # Migrate a random account mid-flight: state and mapping
            # move while receipts naming its old shard are pending.
            account = int(rng.integers(0, n_accounts))
            to_shard = int(rng.integers(0, k))
            batched.apply_migration_batch(
                np.array([account]), np.array([to_shard])
            )
            scalar.apply_migration_batch(
                np.array([account]), np.array([to_shard])
            )
            batched.mapping.assign(account, to_shard)
            scalar.mapping.assign(account, to_shard)
            block += int(rng.integers(1, 3))
        batched.settle_all(from_block=block)
        scalar.settle_all(from_block=block)
        self._assert_identical(batched, scalar, k)
        assert batched.total_value() == pytest.approx(scalar.total_value())


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
        executor.execute_block(
            block, [Transaction(int(sender), int(receiver), value=amount)]
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
