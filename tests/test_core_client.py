"""Unit tests for the client/wallet abstraction."""

import numpy as np
import pytest

from repro.chain.mapping import ShardMapping
from repro.chain.transaction import Transaction, TransactionBatch
from repro.core.client import Client
from repro.errors import ValidationError
from repro.workload.observer import WorkloadSnapshot


@pytest.fixture
def mapping():
    return ShardMapping(np.array([0, 1, 1, 0]), k=2)


@pytest.fixture
def client():
    return Client(account=0, eta=2.0)


class TestLocalStore:
    def test_observe_committed(self, client):
        client.observe_committed(Transaction(0, 1))
        assert len(client.history) == 1

    def test_observe_rejects_foreign_transaction(self, client):
        with pytest.raises(ValidationError):
            client.observe_committed(Transaction(1, 2))

    def test_observe_batch_filters_to_own(self, client):
        batch = TransactionBatch(
            np.array([0, 1, 2]), np.array([1, 2, 0])
        )
        count = client.observe_committed_batch(batch)
        assert count == 2  # 0->1 and 2->0
        assert len(client.history) == 2

    def test_expect_records_transaction(self, client):
        client.expect(Transaction(0, 3))
        assert len(client.expected) == 1

    def test_expect_rejects_foreign(self, client):
        with pytest.raises(ValidationError):
            client.expect(Transaction(1, 2))

    def test_rejects_negative_account(self):
        with pytest.raises(ValidationError):
            Client(account=-1, eta=2.0)


class TestDecisions:
    def test_run_pilot(self, client, mapping):
        client.observe_committed(Transaction(0, 1))
        client.observe_committed(Transaction(0, 2))
        snapshot = WorkloadSnapshot(epoch=0, omega=np.array([5.0, 5.0]))
        decision = client.run_pilot(snapshot, mapping)
        assert decision.best_shard == 1  # both peers on shard 1

    def test_propose_migration_returns_request(self, client, mapping):
        client.observe_committed(Transaction(0, 1))
        client.observe_committed(Transaction(0, 2))
        snapshot = WorkloadSnapshot(epoch=3, omega=np.array([5.0, 5.0]))
        request = client.propose_migration(snapshot, mapping, epoch=3)
        assert request is not None
        assert request.account == 0
        assert request.from_shard == 0
        assert request.to_shard == 1
        assert request.epoch == 3
        assert request.gain > 0

    def test_propose_migration_none_when_satisfied(self, mapping):
        client = Client(account=1, eta=2.0)
        client.observe_committed(Transaction(1, 2))  # peer on own shard
        snapshot = WorkloadSnapshot(epoch=0, omega=np.array([5.0, 5.0]))
        assert client.propose_migration(snapshot, mapping) is None

    def test_beta_uses_expectations(self, mapping):
        client = Client(account=0, eta=2.0, beta=1.0)
        client.observe_committed(Transaction(0, 3))  # history: shard 0
        client.expect(Transaction(0, 1))             # future: shard 1
        snapshot = WorkloadSnapshot(epoch=0, omega=np.array([5.0, 5.0]))
        decision = client.run_pilot(snapshot, mapping)
        assert decision.best_shard == 1


class TestAccounting:
    def test_repr(self, client):
        assert "account=0" in repr(client)
