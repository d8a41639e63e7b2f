"""Unit tests for the composed ledger."""

import numpy as np
import pytest

from repro.chain.ledger import Ledger
from repro.chain.mapping import ShardMapping
from repro.chain.migration import MigrationRequest, MigrationRequestBatch
from repro.chain.params import ProtocolParams
from repro.chain.transaction import TransactionBatch
from repro.errors import SimulationError


@pytest.fixture
def ledger(params):
    mapping = ShardMapping(
        np.arange(8, dtype=np.int64) % params.k, k=params.k
    )
    return Ledger(params, mapping)


def batch_over(n_accounts, n_tx, seed=0):
    rng = np.random.default_rng(seed)
    senders = rng.integers(0, n_accounts, size=n_tx)
    receivers = (senders + 1 + rng.integers(0, n_accounts - 1, size=n_tx)) % n_accounts
    return TransactionBatch(senders, receivers)


class TestProcessEpoch:
    def test_counts_partition_transactions(self, ledger):
        batch = batch_over(8, 50)
        stats = ledger.process_epoch(batch)
        assert stats.intra_shard + stats.cross_shard == 50
        assert stats.total_transactions == 50
        assert 0 <= stats.cross_shard_ratio <= 1
        assert stats.intra_shard_ratio == pytest.approx(
            1 - stats.cross_shard_ratio
        )

    def test_each_shard_gets_a_block(self, ledger, params):
        ledger.process_epoch(batch_over(8, 20))
        for chain in ledger.shards:
            assert len(chain) == 1
            chain.verify()

    def test_rejects_unknown_accounts(self, ledger):
        batch = TransactionBatch(np.array([100]), np.array([0]))
        with pytest.raises(SimulationError, match="grow the mapping"):
            ledger.process_epoch(batch)

    def test_workloads_match_paper_formula(self, ledger, params):
        batch = batch_over(8, 40)
        stats = ledger.process_epoch(batch)
        expected_total = stats.intra_shard + 2 * params.eta * stats.cross_shard
        assert stats.workloads.sum() == pytest.approx(expected_total)

    def test_empty_epoch_stats(self, ledger):
        stats = ledger.process_epoch(TransactionBatch.empty())
        assert stats.total_transactions == 0
        assert stats.cross_shard_ratio == 0.0


class TestMigrationFlow:
    def test_full_cycle(self, ledger):
        src = ledger.mapping.shard_of(0)
        dst = (src + 1) % ledger.params.k
        ledger.submit_migration_batch(
            MigrationRequestBatch.from_requests(
                [MigrationRequest(account=0, from_shard=src, to_shard=dst, gain=1.0)]
            )
        )
        report = ledger.commit_migrations(capacity=10)
        assert report.committed_count == 1
        reconfig = ledger.reconfigure()
        assert reconfig.migrations_applied == 1
        assert ledger.mapping.shard_of(0) == dst
        assert ledger.epoch == 1

    def test_capacity_zero_blocks_all(self, ledger):
        src = ledger.mapping.shard_of(0)
        dst = (src + 1) % ledger.params.k
        ledger.submit_migration_batch(
            MigrationRequestBatch.from_requests(
                [MigrationRequest(account=0, from_shard=src, to_shard=dst)]
            )
        )
        report = ledger.commit_migrations(capacity=0)
        assert report.committed_count == 0
        ledger.reconfigure()
        assert ledger.mapping.shard_of(0) == src

    def test_mapping_k_mismatch_rejected(self, params):
        mapping = ShardMapping(np.zeros(4, dtype=np.int64), k=2)
        with pytest.raises(SimulationError):
            Ledger(params, mapping)

    def test_with_miner_pool(self, params):
        mapping = ShardMapping(
            np.arange(8, dtype=np.int64) % params.k, k=params.k
        )
        ledger = Ledger(params, mapping, miners_per_shard=3)
        assert ledger.miner_pool is not None
        report = ledger.reconfigure()
        assert report.reshuffle is not None
