"""The epoch pass against the per-transfer committer it replaced.

``CrossShardExecutor.execute_batch`` runs an epoch as one pass: safe
senders' events are gathered and committed at the end, the rest run
the exact scalar scan. ``executor_reference.ReferenceExecutor`` keeps
the block-by-block, transfer-by-transfer committer. Both are driven
through the same batches — underfunded senders, in-block funding
chains, fractional amounts and fees (which take the exact scan),
zero-amount debits by accounts homed nowhere, migrations between
epochs, relay delays 0, 1 and 3, the ideal and a lossy network with
outages — and must agree on every store's state root and every
account's balance and nonce, every per-block report, the pending
ledger, the collected fees, the tx-id counter and the bus statistics.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from executor_reference import ReferenceExecutor

from repro.chain.crossshard import CrossShardExecutor
from repro.chain.mapping import ShardMapping
from repro.chain.netsim import (
    MSG_RECEIPT,
    LinkOutage,
    NetworkModel,
    NetworkSpec,
    RetryPolicy,
)
from repro.chain.state import StateRegistry
from repro.chain.transaction import Transaction, TransactionBatch

N_ACCOUNTS = 8

#: Drops, duplicates, a periodic outage of shard 0 and a short receipt
#: deadline: deliveries, dedups and timeout refunds all fire within a
#: few dozen blocks.
LOSSY = NetworkSpec(
    name="lossy-outages",
    extra_latency_blocks=1,
    jitter_blocks=2,
    drop_prob=0.3,
    duplicate_prob=0.1,
    outages=(LinkOutage(shard=0, period_blocks=7, down_blocks=3),),
    retries=(
        (
            MSG_RECEIPT,
            RetryPolicy(max_attempts=2, backoff_blocks=1, deadline_blocks=4),
        ),
    ),
)

#: Per-block conservation deltas: sums whose association order differs
#: between the pass and the oracle, so they compare to within rounding.
DELTA_FIELDS = ("debited_value", "credited_value", "in_flight_delta")

_AMOUNTS = st.sampled_from([0.0, 1.0, 2.0, 3.0, 7.0, 0.5, 0.1, 2.25, 1e-3])
_FEES = st.sampled_from([0.0, 0.0, 1.0, 0.3])
_EPOCH = st.tuples(
    st.lists(
        st.tuples(
            st.integers(0, N_ACCOUNTS - 1),  # sender
            st.integers(0, N_ACCOUNTS - 1),  # receiver
            st.integers(0, 2),  # blocks since the previous transfer
            _AMOUNTS,
            _FEES,
        ),
        min_size=1,
        max_size=25,
    ),
    st.sampled_from(["values", "values+fees", "default"]),
    # A migration after the epoch: (account, target shard) or None.
    st.none() | st.tuples(st.integers(0, N_ACCOUNTS - 1), st.integers(0, 3)),
)


def _pair(assignment, k, relay_delay, network, balances):
    """A reference executor and a production one over equal state."""
    pair = []
    for cls in (ReferenceExecutor, CrossShardExecutor):
        mapping = ShardMapping(np.asarray(assignment), k=k)
        registry = StateRegistry(k, n_accounts=len(assignment))
        model = None if network is None else NetworkModel(network, seed=11)
        executor = cls(
            registry, mapping, relay_delay_blocks=relay_delay, network=model
        )
        for account, balance in enumerate(balances):
            if balance is not None:  # None: the account is homed nowhere
                executor.fund(account, balance)
        pair.append(executor)
    return pair


def _assert_reports_equal(expected, actual):
    assert len(expected) == len(actual)
    for want, got in zip(expected, actual):
        want, got = dataclasses.asdict(want), dataclasses.asdict(got)
        for name in DELTA_FIELDS:
            assert got.pop(name) == pytest.approx(
                want.pop(name), rel=1e-12, abs=1e-12
            ), name
        assert got == want


def _assert_same_state(reference, executor):
    k = reference.registry.k
    for shard in range(k):
        assert (
            executor.registry.store_of(shard).state_root()
            == reference.registry.store_of(shard).state_root()
        )
    for account in range(reference.mapping.n_accounts):
        home = reference.registry.locate(account)
        assert executor.registry.locate(account) == home
        if home is not None:
            want = reference.registry.store_of(home).get(account)
            got = executor.registry.store_of(home).get(account)
            assert (got.balance, got.nonce) == (want.balance, want.nonce)
    for want, got in zip(reference.ledger.view(), executor.ledger.view()):
        np.testing.assert_array_equal(got, want)
    assert executor.collected_fees == reference.collected_fees
    assert executor._next_tx_id == reference._next_tx_id
    assert executor.in_flight_value() == reference.in_flight_value()
    assert (
        executor.network_transport.bus.stats.snapshot()
        == reference.network_transport.bus.stats.snapshot()
    )


def _batch(rows, columns, first_block):
    senders, receivers, gaps, amounts, fees = (np.array(c) for c in zip(*rows))
    blocks = first_block + np.cumsum(gaps)
    return TransactionBatch(
        senders,
        receivers,
        blocks,
        None if columns == "default" else amounts,
        fees if columns == "values+fees" else None,
    )


@settings(max_examples=150, deadline=None)
@given(
    epochs=st.lists(_EPOCH, min_size=1, max_size=4),
    k=st.integers(1, 3),
    relay_delay=st.sampled_from([0, 1, 3]),
    lossy=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_epoch_pass_matches_the_per_transfer_oracle(
    epochs, k, relay_delay, lossy, seed
):
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, k, size=N_ACCOUNTS)
    # Unfunded (homed nowhere), empty, small, fractional and rich
    # openings: underfunded senders, funding chains and safe senders.
    choices = [None, 0.0, 1.0, 3.0, 7.5, 40.0]
    balances = [choices[i] for i in rng.integers(0, len(choices), N_ACCOUNTS)]
    reference, executor = _pair(
        assignment, k, relay_delay, LOSSY if lossy else None, balances
    )
    block = 0
    for rows, columns, migration in epochs:
        batch = _batch(rows, columns, block)
        _assert_reports_equal(
            reference.execute_batch(batch), executor.execute_batch(batch)
        )
        _assert_same_state(reference, executor)
        block = int(batch.blocks[-1]) + 1
        if migration is not None:
            account, shard = migration[0], migration[1] % k
            for side in (reference, executor):
                side.registry.migrate_batch(
                    np.array([account]), np.array([shard])
                )
                side.mapping.assign(account, shard)
    _assert_reports_equal(
        [reference.settle_all(from_block=block)],
        [executor.settle_all(from_block=block)],
    )
    _assert_same_state(reference, executor)


class TestInBlockOrderAgainstOracle:
    """``TestInBlockOrder``'s cases, and the edges the classification
    must route to the exact scan, run on both committers."""

    @staticmethod
    def _compare(balances, *transfers, assignment=(0, 0, 1), relay_delay=1):
        reference, executor = _pair(assignment, 2, relay_delay, None, balances)
        batch = TransactionBatch.from_transactions(list(transfers))
        _assert_reports_equal(
            reference.execute_batch(batch), executor.execute_batch(batch)
        )
        _assert_same_state(reference, executor)
        return executor

    def test_spend_before_intra_credit_fails(self):
        self._compare(
            [10.0, None, None],
            Transaction(1, 2, value=4.0),
            Transaction(0, 1, value=5.0),
        )

    def test_spend_after_intra_credit_succeeds(self):
        self._compare(
            [10.0, None, None],
            Transaction(0, 1, value=5.0),
            Transaction(1, 2, value=4.0),
        )

    def test_value_without_fee_headroom_fails(self):
        self._compare(
            [10.0, None, None],
            Transaction(0, 1, value=5.0),
            Transaction(1, 2, value=4.0, fee=2.0),
        )

    def test_funding_chain_across_blocks(self):
        """Each sender spends what the previous hop sent it, one
        relay delay later."""
        self._compare(
            [9.0, 0.0, 0.0],
            Transaction(0, 2, block=0, value=6.0),
            Transaction(2, 1, block=1, value=5.0),
            Transaction(1, 0, block=2, value=4.0),
            Transaction(1, 2, block=3, value=1.0),
            relay_delay=0,
        )

    def test_zero_amount_debit_homes_an_unfunded_sender(self):
        executor = self._compare(
            [None, None, None],
            Transaction(0, 1, value=0.0),
            Transaction(2, 0, value=0.0),
        )
        assert executor.registry.locate(0) == 0
        assert executor.registry.store_of(0).get(0).nonce == 1

    def test_fractional_amounts_keep_the_scalar_sums(self):
        self._compare(
            [1.0, 0.3, 0.0],
            Transaction(1, 0, value=0.1, fee=0.1),
            Transaction(0, 1, value=0.7),
            Transaction(1, 2, value=0.2, fee=0.3),
            Transaction(0, 2, value=0.3),
        )


def test_every_sender_is_safe_under_covering_funding():
    """Funding that covers each sender's epoch outflow leaves no exact
    account, so the scan runs on no transfer."""
    rng = np.random.default_rng(5)
    senders = rng.integers(0, N_ACCOUNTS, size=200)
    receivers = rng.integers(0, N_ACCOUNTS, size=200)
    values = rng.integers(0, 9, size=200).astype(np.float64)
    outflow = np.bincount(senders, weights=values, minlength=N_ACCOUNTS)
    reference, executor = _pair(
        rng.integers(0, 3, size=N_ACCOUNTS), 3, 1, None, outflow.tolist()
    )
    assert executor._exact_accounts(senders, values) is None
    batch = TransactionBatch(senders, receivers, np.arange(200) // 10, values)
    reports = executor.execute_batch(batch)
    _assert_reports_equal(reference.execute_batch(batch), reports)
    _assert_same_state(reference, executor)
    assert sum(report.failed for report in reports) == 0
