"""Unit tests for the migration-request commitment rule.

Mosaic's per-epoch cap and the beacon chain's commitment round share
one rule, ``select_migrations_kernel``: stale filter, per-account
dedup, then a gain-prioritised (or FIFO) capacity cap.
"""

import numpy as np
import pytest

from repro.chain.mapping import ShardMapping
from repro.chain.migration import MigrationRequestBatch, select_migrations_kernel
from repro.errors import ValidationError


def batch(*rows):
    """A batch of ``(account, gain[, src, dst])`` rows; moves default 0 -> 1."""
    columns = np.array([(row + (0, 1))[:4] for row in rows]).reshape(-1, 4).T
    accounts, gains, srcs, dsts = columns
    return MigrationRequestBatch(accounts, srcs, dsts, gains)


def select(requests, mapping, capacity=None, fifo=False):
    """``(committed_idx, rejected_idx)`` of one commitment round."""
    return select_migrations_kernel(
        requests.accounts,
        requests.from_shards,
        requests.to_shards,
        requests.gains,
        mapping.as_array(),
        mapping.k,
        capacity,
        fifo=fifo,
    )


@pytest.fixture
def mapping():
    return ShardMapping(np.zeros(10, dtype=np.int64), k=3)


class TestGainPolicy:
    def test_commits_by_gain_under_capacity(self, mapping):
        requests = batch((1, 1.0), (2, 3.0), (3, 2.0))
        committed, rejected = select(requests, mapping, capacity=2)
        assert requests.accounts[committed].tolist() == [2, 3]
        assert requests.accounts[rejected].tolist() == [1]

    def test_unlimited_capacity(self, mapping):
        committed, _ = select(batch(*[(i, 1.0) for i in range(5)]), mapping)
        assert len(committed) == 5

    def test_stale_requests_rejected(self, mapping):
        mapping.assign(1, 2)
        committed, rejected = select(batch((1, 1.0, 0, 1)), mapping)
        assert len(committed) == 0
        assert len(rejected) == 1

    def test_unknown_account_rejected(self, mapping):
        committed, _ = select(batch((99, 1.0)), mapping)
        assert len(committed) == 0

    def test_out_of_range_target_rejected(self, mapping):
        committed, _ = select(batch((1, 1.0, 0, 7)), mapping)
        assert len(committed) == 0

    def test_rejects_negative_capacity(self, mapping):
        with pytest.raises(ValidationError):
            select(batch((1, 1.0)), mapping, capacity=-1)


class TestFifoPolicy:
    def test_commits_in_submission_order(self, mapping):
        requests = batch((1, 0.1), (2, 9.0), (3, 5.0))
        committed, _ = select(requests, mapping, capacity=2, fifo=True)
        assert requests.accounts[committed].tolist() == [1, 2]

    def test_fifo_deduplicates_first_wins(self, mapping):
        requests = batch((1, 0.1), (1, 9.0))
        committed, _ = select(requests, mapping, fifo=True)
        assert requests.gains[committed].tolist() == [0.1]


class TestApply:
    """Committed rows apply to ``phi`` with one ``assign_many``, as
    ``MosaicAllocator.update`` does."""

    def test_apply_updates_mapping(self, mapping):
        requests = batch((1, 2.0), (2, 1.0))
        committed, _ = select(requests, mapping, capacity=1)
        mapping.assign_many(
            requests.accounts[committed], requests.to_shards[committed]
        )
        assert len(committed) == 1
        assert mapping.shard_of(1) == 1
        assert mapping.shard_of(2) == 0  # rejected, unchanged

    def test_apply_without_requests(self, mapping):
        before = mapping.copy()
        committed, rejected = select(MigrationRequestBatch.empty(), mapping)
        mapping.assign_many(np.zeros(0, dtype=np.int64), committed)
        assert len(committed) == len(rejected) == 0
        assert mapping == before
