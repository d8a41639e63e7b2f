"""Conservation of balance through the full epoch loop.

Drives the complete substrate pipeline — allocator updates, beacon-
committed migrations with state movement, and cross-shard execution
with relay settlement — for several epochs, checking at **every block
boundary** that total value (resident balances plus in-flight receipts)
equals the genesis supply: each block's reported deltas cancel, and
their running sums match the state at the end of the epoch. No step of
the columnar pipeline may create or destroy value.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.txallo import TxAlloAllocator
from repro.chain.crossshard import CrossShardExecutor
from repro.chain.ledger import Ledger
from repro.chain.migration import MigrationRequest, MigrationRequestBatch
from repro.chain.netsim import NetworkModel
from repro.chain.params import ProtocolParams
from repro.chain.state import StateRegistry
from repro.chain.transaction import TransactionBatch
from repro.data.ethereum import EthereumTraceConfig, generate_ethereum_like_trace
from repro.allocation.base import UpdateContext


def _migration_pairs(old, new):
    """``(account, from_shard, to_shard)`` for every account ``new`` moves."""
    moved = old.diff(new)
    return zip(
        moved.tolist(), old.shards_of(moved).tolist(), new.shards_of(moved).tolist()
    )


def _execute_checking_block_deltas(ledger, executor, batch):
    """Run one epoch and check its per-block conservation deltas.

    The epoch commits as one pass, so the block boundaries are visible
    only through each report's deltas: debited, credited, fees
    collected and the in-flight change must cancel in every block, and
    their running sums must equal the change of resident balances, the
    fee pool and in-flight value over the whole epoch.
    """
    balances = executor.registry.total_balance()
    fees = executor.collected_fees
    in_flight = executor.in_flight_value()
    reports = ledger.execute_epoch(batch)
    for report in reports:
        net = (
            report.credited_value
            - report.debited_value
            + report.fees_collected
            + report.in_flight_delta
        )
        assert net == pytest.approx(0.0, abs=1e-9), (
            f"value drift in block {report.block}"
        )
    assert balances + sum(
        r.credited_value - r.debited_value for r in reports
    ) == pytest.approx(executor.registry.total_balance(), abs=1e-9)
    assert fees + sum(r.fees_collected for r in reports) == pytest.approx(
        executor.collected_fees, abs=1e-9
    )
    assert in_flight + sum(r.in_flight_delta for r in reports) == (
        pytest.approx(executor.in_flight_value(), abs=1e-9)
    )
    return reports


def _build_world(n_accounts, k, seed, relay_delay, network=None):
    params = ProtocolParams(k=k, eta=2.0, tau=20, seed=seed)
    trace = generate_ethereum_like_trace(
        EthereumTraceConfig(
            n_accounts=n_accounts,
            n_transactions=n_accounts * 12,
            n_blocks=120,
            seed=seed,
        )
    )
    allocator = TxAlloAllocator(mode="full", max_rounds=2)
    mapping = allocator.initialize(trace, params)
    registry = StateRegistry(k=k, n_accounts=mapping.n_accounts)
    executor = CrossShardExecutor(
        registry,
        mapping,
        relay_delay_blocks=relay_delay,
        network=network,
    )
    ledger = Ledger(params, executor)
    return params, trace, allocator, mapping, executor, ledger


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 500),
    k=st.integers(2, 4),
    relay_delay=st.integers(0, 2),
)
def test_total_value_conserved_through_full_loop(seed, k, relay_delay):
    n_accounts = 60
    params, trace, allocator, mapping, executor, ledger = _build_world(
        n_accounts, k, seed, relay_delay
    )
    rng = np.random.default_rng(seed)
    for account in range(n_accounts):
        executor.fund(account, float(rng.integers(5, 40)))
    genesis = executor.total_value()

    epoch_views = trace.epoch_list(params.tau, max_epochs=4)
    for view in epoch_views:
        batch = view.batch
        if len(batch) == 0:
            continue
        # Execute the epoch's transfers block by block; the engine's
        # metrics side is covered elsewhere — here we assert value
        # conservation at every block boundary.
        values = rng.integers(0, 6, size=len(batch)).astype(np.float64)
        valued = TransactionBatch(
            batch.senders, batch.receivers, batch.blocks, values
        )
        _execute_checking_block_deltas(ledger, executor, valued)
        assert executor.total_value() == pytest.approx(
            genesis, abs=1e-9, rel=0
        ), f"value drift after epoch {view.index}"

        # Allocator proposes the next mapping; committed moves become
        # beacon MRs whose state migration rides reconfiguration.
        context = UpdateContext(
            epoch=view.index,
            params=params,
            committed=batch,
            mempool=batch,
            capacity=params.derive_capacity(len(batch)),
        )
        update = allocator.update(mapping, context)
        requests = [
            MigrationRequest(
                account=int(account),
                from_shard=int(from_shard),
                to_shard=int(to_shard),
                gain=1.0,
                epoch=view.index,
            )
            for account, from_shard, to_shard in _migration_pairs(
                mapping, update.mapping
            )
        ]
        ledger.submit_migration_batch(
            MigrationRequestBatch.from_requests(requests)
        )
        ledger.commit_migrations(view.index, capacity=None)
        ledger.reconfigure(view.index)  # applies MRs to phi AND moves state
        assert executor.total_value() == pytest.approx(
            genesis, abs=1e-9, rel=0
        ), f"value drift after reconfiguration of epoch {view.index}"

    # Flush every pending receipt and re-check the invariant plus an
    # empty in-flight ledger.
    executor.settle_all(from_block=int(trace.batch.blocks.max()) + 1)
    assert executor.total_value() == pytest.approx(genesis, abs=1e-9, rel=0)
    assert executor.in_flight_value() == 0.0
    # No balance anywhere went negative.
    for shard in range(k):
        store = executor.registry.store_of(shard)
        for account in store.accounts():
            assert store.get(account).balance >= 0


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 500),
    k=st.integers(2, 4),
    relay_delay=st.integers(0, 2),
)
def test_total_value_conserved_under_lossy_network(seed, k, relay_delay):
    """The full loop under degraded WAN: drops, duplicate deliveries,
    timeout refunds and migrations interleave, yet resident balances +
    ledgered receipts + value on the wire stay exactly genesis at every
    block boundary."""
    n_accounts = 60
    params, trace, allocator, mapping, executor, ledger = _build_world(
        n_accounts,
        k,
        seed,
        relay_delay,
        network=NetworkModel("lossy", seed=seed),
    )
    rng = np.random.default_rng(seed)
    for account in range(n_accounts):
        executor.fund(account, float(rng.integers(5, 40)))
    genesis = executor.total_value()

    for view in trace.epoch_list(params.tau, max_epochs=4):
        batch = view.batch
        if len(batch) == 0:
            continue
        values = rng.integers(0, 6, size=len(batch)).astype(np.float64)
        valued = TransactionBatch(
            batch.senders, batch.receivers, batch.blocks, values
        )
        _execute_checking_block_deltas(ledger, executor, valued)
        assert executor.total_value() == pytest.approx(
            genesis, abs=1e-9, rel=0
        ), f"value drift after epoch {view.index}"

        context = UpdateContext(
            epoch=view.index,
            params=params,
            committed=batch,
            mempool=batch,
            capacity=params.derive_capacity(len(batch)),
        )
        update = allocator.update(mapping, context)
        requests = [
            MigrationRequest(
                account=int(account),
                from_shard=int(from_shard),
                to_shard=int(to_shard),
                gain=1.0,
                epoch=view.index,
            )
            for account, from_shard, to_shard in _migration_pairs(
                mapping, update.mapping
            )
        ]
        ledger.submit_migration_batch(
            MigrationRequestBatch.from_requests(requests)
        )
        ledger.commit_migrations(view.index, capacity=None)
        ledger.reconfigure(view.index)
        assert executor.total_value() == pytest.approx(
            genesis, abs=1e-9, rel=0
        ), f"value drift after reconfiguration of epoch {view.index}"

    # Drain the wire: deliveries settle, the rest refunds the senders.
    executor.settle_all(from_block=int(trace.batch.blocks.max()) + 1)
    assert executor.total_value() == pytest.approx(genesis, abs=1e-9, rel=0)
    assert executor.in_flight_value() == 0.0
    assert executor.in_flight_count() == 0
    transport = executor.network_transport
    assert transport.bus.stats.dropped > 0  # the faults actually fired
    for shard in range(k):
        store = executor.registry.store_of(shard)
        for account in store.accounts():
            assert store.get(account).balance >= 0


def test_lossy_refunds_credit_the_senders_current_shard():
    """A sender that migrated while its receipt was on the wire is
    refunded at its *current* shard — the refund follows phi, so no
    value lands on a stale store."""
    n_accounts = 60
    params, trace, allocator, mapping, executor, ledger = _build_world(
        n_accounts,
        k=3,
        seed=42,
        relay_delay=1,
        network=NetworkModel("lossy", seed=42),
    )
    for account in range(n_accounts):
        executor.fund(account, 30.0)
    genesis = executor.total_value()
    rng = np.random.default_rng(42)
    for view in trace.epoch_list(params.tau, max_epochs=4):
        batch = view.batch
        if len(batch) == 0:
            continue
        values = rng.integers(1, 6, size=len(batch)).astype(np.float64)
        ledger.execute_epoch(
            TransactionBatch(batch.senders, batch.receivers, batch.blocks, values)
        )
        # Migrate a handful of accounts every epoch so some refunds
        # land after their sender moved shards.
        movers = rng.choice(n_accounts, size=6, replace=False)
        requests = [
            MigrationRequest(
                account=int(account),
                from_shard=int(mapping.shard_of(int(account))),
                to_shard=int(
                    (mapping.shard_of(int(account)) + 1) % params.k
                ),
                gain=1.0,
                epoch=view.index,
            )
            for account in movers
        ]
        ledger.submit_migration_batch(
            MigrationRequestBatch.from_requests(requests)
        )
        ledger.commit_migrations(view.index, capacity=None)
        ledger.reconfigure(view.index)
    executor.settle_all(from_block=int(trace.batch.blocks.max()) + 1)
    assert executor.total_value() == pytest.approx(genesis, abs=1e-9, rel=0)
    assert executor.in_flight_count() == 0
    # Every account's balance lives exactly where phi says it does.
    for account in range(n_accounts):
        assert executor.registry.locate(account) == mapping.shard_of(account)
