"""Unit tests for epoch reconfiguration."""

import numpy as np
import pytest

from repro.chain.beacon import BeaconChain
from repro.chain.epoch import EpochReconfigurator
from repro.chain.mapping import ShardMapping
from repro.chain.migration import MigrationRequestBatch
from repro.chain.netsim import NETWORK_IDEAL, MessageBus, NetworkModel
from repro.chain.network import MR_RECORD_BYTES
from repro.chain.state import StateRegistry
from repro.errors import MappingError, SimulationError


def reconfigurator_for(beacon, k=2, n_accounts=4):
    """A reconfigurator over an unfunded registry and an ideal bus."""
    return EpochReconfigurator(
        beacon,
        StateRegistry(k=k, n_accounts=n_accounts),
        MessageBus(NetworkModel(NETWORK_IDEAL)),
    )


def record_sends(reconfigurator):
    """Record ``(dst, size_bytes)`` of every message the reconfigurator
    sends from now on (the ideal bus itself keeps no byte counts)."""
    sends = []
    bus = reconfigurator._bus
    send_many = bus.send_many

    def spy(message_class, src, dst, block, **kwargs):
        sends.append((dst, kwargs.get("size_bytes")))
        send_many(message_class, src, dst, block, **kwargs)

    bus.send_many = spy
    return sends


def one_request(account, from_shard=0, to_shard=1):
    """A single-row migration-request batch."""
    return MigrationRequestBatch(
        np.array([account]), np.array([from_shard]), np.array([to_shard])
    )


class TestEpochReconfigurator:
    def _beacon_with_requests(self):
        beacon = BeaconChain()
        beacon.submit_batch(one_request(1))
        beacon.submit_batch(one_request(2))
        beacon.commit_epoch(epoch=0)
        return beacon

    def test_applies_and_announces_migrations(self):
        beacon = self._beacon_with_requests()
        mapping = ShardMapping(np.zeros(4, dtype=np.int64), k=2)
        reconfigurator = reconfigurator_for(beacon)
        sends = record_sends(reconfigurator)
        assert reconfigurator.run(epoch=0, mapping=mapping) == 2
        assert mapping.shard_of(1) == 1
        assert mapping.shard_of(2) == 1
        # One beacon-sync announcement per shard, carrying both MRs.
        assert [(dst.tolist(), size) for dst, size in sends] == [
            ([0, 1], 2 * MR_RECORD_BYTES)
        ]

    def test_sync_height_advances(self):
        beacon = self._beacon_with_requests()
        mapping = ShardMapping(np.zeros(4, dtype=np.int64), k=2)
        reconfigurator = reconfigurator_for(beacon)
        assert reconfigurator.run(epoch=0, mapping=mapping) > 0
        sends = record_sends(reconfigurator)
        # Second run with no new blocks applies and announces nothing.
        assert reconfigurator.run(epoch=1, mapping=mapping) == 0
        assert sends == []

    def test_out_of_range_target_changes_nothing(self):
        """A committed MR to a shard beyond the mapping raises before any
        synced block applies, and a retry raises again."""
        beacon = BeaconChain()
        beacon.submit_batch(one_request(1, to_shard=1))
        beacon.commit_epoch(epoch=0)
        beacon.submit_batch(one_request(2, to_shard=5))
        beacon.commit_epoch(epoch=1)
        mapping = ShardMapping(np.zeros(4, dtype=np.int64), k=2)
        reconfigurator = reconfigurator_for(beacon)
        sends = record_sends(reconfigurator)
        for _ in range(2):
            with pytest.raises(MappingError, match="account 2 to shard 5"):
                reconfigurator.run(epoch=1, mapping=mapping)
        assert mapping.shard_of(1) == 0
        assert sends == []
        assert beacon.committed_count == 2

    def test_rejects_negative_epoch(self):
        reconfigurator = reconfigurator_for(BeaconChain(), n_accounts=1)
        mapping = ShardMapping(np.zeros(1, dtype=np.int64), k=2)
        with pytest.raises(SimulationError):
            reconfigurator.run(epoch=-1, mapping=mapping)
