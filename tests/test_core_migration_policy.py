"""Unit tests for the migration-request policy."""

import numpy as np
import pytest

from repro.chain.mapping import ShardMapping
from repro.chain.migration import MigrationRequestBatch
from repro.core.migration import MigrationPolicy
from repro.errors import MigrationError


def batch(*rows):
    """A batch of ``(account, gain[, src, dst])`` rows; moves default 0 -> 1."""
    columns = np.array([(row + (0, 1))[:4] for row in rows]).reshape(-1, 4).T
    accounts, gains, srcs, dsts = columns
    return MigrationRequestBatch(accounts, srcs, dsts, gains)


def committed_accounts(outcome):
    return outcome.batch.accounts[outcome.committed_idx].tolist()


@pytest.fixture
def mapping():
    return ShardMapping(np.zeros(10, dtype=np.int64), k=3)


class TestGainPolicy:
    def test_commits_by_gain_under_capacity(self, mapping):
        policy = MigrationPolicy(capacity=2)
        outcome = policy.select_batch(batch((1, 1.0), (2, 3.0), (3, 2.0)), mapping)
        assert committed_accounts(outcome) == [2, 3]
        assert outcome.batch.accounts[outcome.rejected_idx].tolist() == [1]

    def test_unlimited_capacity(self, mapping):
        policy = MigrationPolicy(capacity=None)
        outcome = policy.select_batch(batch(*[(i, 1.0) for i in range(5)]), mapping)
        assert outcome.committed_count == 5

    def test_stale_requests_rejected(self, mapping):
        mapping.assign(1, 2)
        policy = MigrationPolicy()
        outcome = policy.select_batch(batch((1, 1.0, 0, 1)), mapping)
        assert outcome.committed_count == 0
        assert len(outcome.rejected_idx) == 1

    def test_unknown_account_rejected(self, mapping):
        policy = MigrationPolicy()
        outcome = policy.select_batch(batch((99, 1.0)), mapping)
        assert outcome.committed_count == 0

    def test_out_of_range_target_rejected(self, mapping):
        policy = MigrationPolicy()
        outcome = policy.select_batch(batch((1, 1.0, 0, 7)), mapping)
        assert outcome.committed_count == 0

    def test_rejects_negative_capacity(self):
        with pytest.raises(MigrationError):
            MigrationPolicy(capacity=-1)


class TestFifoPolicy:
    def test_commits_in_submission_order(self, mapping):
        policy = MigrationPolicy(capacity=2, fifo=True)
        outcome = policy.select_batch(batch((1, 0.1), (2, 9.0), (3, 5.0)), mapping)
        assert committed_accounts(outcome) == [1, 2]

    def test_fifo_deduplicates_first_wins(self, mapping):
        policy = MigrationPolicy(fifo=True)
        outcome = policy.select_batch(batch((1, 0.1), (1, 9.0)), mapping)
        assert outcome.committed_count == 1
        assert outcome.batch.gains[outcome.committed_idx].tolist() == [0.1]


class TestApply:
    def test_apply_updates_mapping(self, mapping):
        policy = MigrationPolicy(capacity=1)
        outcome = policy.apply_batch(batch((1, 2.0), (2, 1.0)), mapping)
        assert outcome.committed_count == 1
        assert mapping.shard_of(1) == 1
        assert mapping.shard_of(2) == 0  # rejected, unchanged

    def test_apply_without_requests(self, mapping):
        policy = MigrationPolicy()
        outcome = policy.apply_batch(MigrationRequestBatch.empty(), mapping)
        assert outcome.committed_count == 0
