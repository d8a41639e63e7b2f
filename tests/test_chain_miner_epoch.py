"""Unit tests for miners, reshuffling, and epoch reconfiguration."""

import numpy as np
import pytest

from repro.chain.beacon import BeaconChain
from repro.chain.epoch import EpochReconfigurator
from repro.chain.mapping import ShardMapping
from repro.chain.migration import MigrationRequestBatch
from repro.chain.miner import Miner, MinerPool
from repro.chain.network import MR_RECORD_BYTES
from repro.chain.state import STATE_RECORD_BYTES
from repro.errors import ConfigurationError, SimulationError, ValidationError
from repro.util.rng import RngFactory



def one_request(account, from_shard=0, to_shard=1):
    """A single-row migration-request batch."""
    return MigrationRequestBatch(
        np.array([account]), np.array([from_shard]), np.array([to_shard])
    )


def committee_sizes(pool):
    """Committee size per shard id, the beacon (-1) included."""
    return {
        shard: len(pool.committee(shard))
        for shard in [Miner.BEACON, *range(pool.k)]
    }


class TestMiner:
    def test_beacon_sentinel(self):
        miner = Miner(miner_id=0, shard=Miner.BEACON)
        assert miner.shard == Miner.BEACON == -1

    def test_rejects_negative_id(self):
        with pytest.raises(ValidationError):
            Miner(miner_id=-1, shard=0)

    def test_rejects_invalid_shard(self):
        with pytest.raises(ValidationError):
            Miner(miner_id=0, shard=-2)


class TestMinerPool:
    def test_initial_committees_balanced(self):
        pool = MinerPool(k=4, miners_per_shard=3, rng_factory=RngFactory(1))
        sizes = committee_sizes(pool)
        assert sizes[Miner.BEACON] == 3
        for shard in range(4):
            assert sizes[shard] == 3
        assert len(pool) == 15

    def test_reshuffle_preserves_committee_sizes(self):
        pool = MinerPool(k=4, miners_per_shard=3, rng_factory=RngFactory(1))
        report = pool.reshuffle(epoch=0)
        sizes = committee_sizes(pool)
        assert all(size == 3 for size in sizes.values())
        assert set(report.assignment) == {m.miner_id for m in pool.miners}

    def test_reshuffle_is_deterministic_per_epoch(self):
        pool_a = MinerPool(k=4, miners_per_shard=3, rng_factory=RngFactory(1))
        pool_b = MinerPool(k=4, miners_per_shard=3, rng_factory=RngFactory(1))
        assert pool_a.reshuffle(0).assignment == pool_b.reshuffle(0).assignment

    def test_reshuffle_differs_between_epochs(self):
        pool = MinerPool(k=8, miners_per_shard=4, rng_factory=RngFactory(1))
        first = pool.reshuffle(0).assignment
        second = pool.reshuffle(1).assignment
        assert first != second

    def test_reshuffle_moves_some_miners(self):
        pool = MinerPool(k=8, miners_per_shard=4, rng_factory=RngFactory(1))
        report = pool.reshuffle(0)
        assert report.moved_count > 0

    def test_committee_lookup(self):
        pool = MinerPool(k=2, miners_per_shard=2, rng_factory=RngFactory(1))
        committee = pool.committee(0)
        assert all(m.shard == 0 for m in committee)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            MinerPool(k=0, miners_per_shard=1, rng_factory=RngFactory(1))
        with pytest.raises(ConfigurationError):
            MinerPool(k=1, miners_per_shard=0, rng_factory=RngFactory(1))


class TestEpochReconfigurator:
    def _beacon_with_requests(self):
        beacon = BeaconChain()
        beacon.submit_batch(one_request(1))
        beacon.submit_batch(one_request(2))
        beacon.commit_epoch(epoch=0)
        return beacon

    def test_applies_migrations_and_reports_bytes(self):
        beacon = self._beacon_with_requests()
        mapping = ShardMapping(np.zeros(4, dtype=np.int64), k=2)
        reconfigurator = EpochReconfigurator(beacon)
        report = reconfigurator.run(epoch=0, mapping=mapping)
        assert report.migrations_applied == 2
        assert mapping.shard_of(1) == 1
        assert mapping.shard_of(2) == 1
        assert report.beacon_sync_bytes == 2 * MR_RECORD_BYTES
        assert report.migration_extra_bytes == 2 * STATE_RECORD_BYTES

    def test_sync_height_advances(self):
        beacon = self._beacon_with_requests()
        mapping = ShardMapping(np.zeros(4, dtype=np.int64), k=2)
        reconfigurator = EpochReconfigurator(beacon)
        first = reconfigurator.run(epoch=0, mapping=mapping)
        assert first.migrations_applied > 0
        # Second run with no new blocks applies nothing.
        report = reconfigurator.run(epoch=1, mapping=mapping)
        assert report.migrations_applied == 0
        assert report.beacon_sync_bytes == 0

    def test_with_miner_pool_accounts_state_sync(self):
        beacon = self._beacon_with_requests()
        mapping = ShardMapping(np.zeros(100, dtype=np.int64), k=2)
        pool = MinerPool(k=2, miners_per_shard=4, rng_factory=RngFactory(2))
        reconfigurator = EpochReconfigurator(beacon, pool)
        report = reconfigurator.run(epoch=0, mapping=mapping)
        assert report.reshuffle is not None
        if report.reshuffle.moved_count:
            assert report.state_sync_bytes > 0
        assert report.total_communication_bytes >= report.beacon_sync_bytes

    def test_rejects_negative_epoch(self):
        reconfigurator = EpochReconfigurator(BeaconChain())
        mapping = ShardMapping(np.zeros(1, dtype=np.int64), k=2)
        with pytest.raises(SimulationError):
            reconfigurator.run(epoch=-1, mapping=mapping)
