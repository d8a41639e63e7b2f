"""Unit tests for the beacon chain."""

import numpy as np
import pytest

from migration_reference import apply_committed, prioritize_requests
from repro.chain.beacon import BeaconChain
from repro.chain.mapping import ShardMapping
from repro.chain.migration import MigrationRequest, MigrationRequestBatch
from repro.errors import MigrationError, ValidationError


def mr(account, src=0, dst=1, gain=1.0, epoch=0):
    return MigrationRequest(
        account=account, from_shard=src, to_shard=dst, gain=gain, epoch=epoch
    )


def submit(beacon, *requests):
    beacon.submit_batch(MigrationRequestBatch.from_requests(requests))


class TestPrioritizeRequests:
    """The reference gain rule the kernel's property tests compare to."""

    def test_orders_by_gain(self):
        committed, rejected = prioritize_requests(
            [mr(1, gain=1.0), mr(2, gain=3.0), mr(3, gain=2.0)], capacity=2
        )
        assert [r.account for r in committed] == [2, 3]
        assert [r.account for r in rejected] == [1]

    def test_deduplicates_per_account_keeping_best(self):
        committed, rejected = prioritize_requests(
            [mr(1, gain=1.0), mr(1, gain=5.0)], capacity=10
        )
        assert len(committed) == 1
        assert committed[0].gain == 5.0
        assert len(rejected) == 1

    def test_unlimited_capacity(self):
        committed, rejected = prioritize_requests(
            [mr(i, gain=float(i)) for i in range(5)], capacity=None
        )
        assert len(committed) == 5
        assert rejected == []

    def test_tie_break_on_account_id(self):
        committed, _ = prioritize_requests(
            [mr(3, gain=1.0), mr(1, gain=1.0)], capacity=1
        )
        assert committed[0].account == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValidationError):
            prioritize_requests([mr(1)], capacity=-1)


class TestBeaconChain:
    def test_submit_and_commit(self):
        beacon = BeaconChain()
        submit(beacon, mr(1, gain=2.0), mr(2, gain=1.0))
        committed = beacon.commit_epoch(epoch=0, capacity=1)
        assert committed.accounts.tolist() == [1]
        assert beacon.committed_count == 1
        assert len(beacon) == 1
        beacon.verify()

    def test_submit_rejects_non_requests(self):
        beacon = BeaconChain()
        with pytest.raises(MigrationError):
            beacon.submit_batch(mr(1))  # type: ignore[arg-type]

    def test_stale_requests_filtered_against_mapping(self):
        beacon = BeaconChain()
        mapping = ShardMapping(np.array([1, 0]), k=2)
        submit(
            beacon,
            mr(0, src=0, dst=1),  # stale: account 0 is on shard 1
            mr(1, src=0, dst=1),  # valid
        )
        committed = beacon.commit_epoch(epoch=0, capacity=10, mapping=mapping)
        assert committed.accounts.tolist() == [1]

    def test_unknown_account_is_stale(self):
        beacon = BeaconChain()
        mapping = ShardMapping(np.array([0]), k=2)
        submit(beacon, mr(5, src=0, dst=1))
        assert len(beacon.commit_epoch(epoch=0, mapping=mapping)) == 0

    def test_apply_to_mapping(self):
        beacon = BeaconChain()
        mapping = ShardMapping(np.array([0, 0]), k=2)
        submit(beacon, mr(1, src=0, dst=1))
        beacon.commit_epoch(epoch=0, mapping=mapping)
        applied = apply_committed(beacon, mapping)
        assert applied == 1
        assert mapping.shard_of(1) == 1

    def test_committed_log_accumulates(self):
        beacon = BeaconChain()
        for epoch in range(3):
            submit(beacon, mr(epoch + 1, epoch=epoch))
            beacon.commit_epoch(epoch=epoch)
        assert beacon.committed_count == 3
        assert [
            batch.accounts.tolist() for batch in beacon.iter_committed_batches()
        ] == [[1], [2], [3]]

    def test_pending_cleared_after_commit(self):
        beacon = BeaconChain()
        submit(beacon, mr(1))
        beacon.commit_epoch(epoch=0)
        assert len(beacon.commit_epoch(epoch=1)) == 0
        assert beacon.committed_count == 1

    @pytest.mark.parametrize(
        "bad", [dict(epoch=-1), dict(epoch=0, capacity=-1)]
    )
    def test_bad_commit_keeps_pending_requests(self, bad):
        """A commit round that rejects its arguments consumes nothing:
        the next valid round still commits the submitted request."""
        beacon = BeaconChain()
        submit(beacon, mr(1))
        with pytest.raises(ValidationError):
            beacon.commit_epoch(**bad)
        assert len(beacon) == 0
        assert beacon.commit_epoch(epoch=0).accounts.tolist() == [1]
        assert beacon.committed_count == 1


class TestMigrationRequest:
    def test_same_shard_rejected(self):
        with pytest.raises(MigrationError):
            MigrationRequest(account=1, from_shard=2, to_shard=2)

    def test_negative_account_rejected(self):
        with pytest.raises(MigrationError):
            MigrationRequest(account=-1, from_shard=0, to_shard=1)

    def test_negative_fee_rejected(self):
        with pytest.raises(MigrationError):
            MigrationRequest(account=1, from_shard=0, to_shard=1, fee=-1.0)

    def test_frozen(self):
        request = mr(1)
        with pytest.raises(Exception):
            request.gain = 9.0  # type: ignore[misc]
