"""Unit tests for the composed ledger."""

import numpy as np
import pytest

from repro.chain.crossshard import CrossShardExecutor
from repro.chain.ledger import Ledger
from repro.chain.mapping import ShardMapping
from repro.chain.migration import MigrationRequest, MigrationRequestBatch
from repro.chain.state import StateRegistry
from repro.errors import SimulationError


def executor_over(mapping):
    """A cross-shard executor over ``mapping`` with one unit per account."""
    executor = CrossShardExecutor(
        StateRegistry(mapping.k, n_accounts=mapping.n_accounts), mapping
    )
    executor.fund_many(np.arange(mapping.n_accounts), 1.0)
    return executor


@pytest.fixture
def ledger(params):
    mapping = ShardMapping(
        np.arange(8, dtype=np.int64) % params.k, k=params.k
    )
    return Ledger(params, executor_over(mapping))


class TestMigrationFlow:
    def test_full_cycle(self, ledger):
        src = ledger.mapping.shard_of(0)
        dst = (src + 1) % ledger.params.k
        ledger.submit_migration_batch(
            MigrationRequestBatch.from_requests(
                [MigrationRequest(account=0, from_shard=src, to_shard=dst, gain=1.0)]
            )
        )
        committed = ledger.commit_migrations(7, capacity=10)
        assert committed.accounts.tolist() == [0]
        assert ledger.reconfigure(7) == 1
        assert ledger.beacon.blocks[-1].header.epoch == 7
        assert ledger.mapping.shard_of(0) == dst
        # The account's state follows the mapping.
        assert ledger.executor.registry.locate(0) == dst
        assert ledger.executor.total_value() == 8.0

    def test_capacity_zero_blocks_all(self, ledger):
        src = ledger.mapping.shard_of(0)
        dst = (src + 1) % ledger.params.k
        ledger.submit_migration_batch(
            MigrationRequestBatch.from_requests(
                [MigrationRequest(account=0, from_shard=src, to_shard=dst)]
            )
        )
        assert len(ledger.commit_migrations(0, capacity=0)) == 0
        assert ledger.reconfigure(0) == 0
        assert ledger.mapping.shard_of(0) == src

    def test_mapping_k_mismatch_rejected(self, params):
        mapping = ShardMapping(np.zeros(4, dtype=np.int64), k=2)
        with pytest.raises(SimulationError):
            Ledger(params, executor_over(mapping))
