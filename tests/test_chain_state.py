"""Unit tests for account state and per-shard state stores."""

import numpy as np
import pytest

from repro.chain.state import (
    STATE_RECORD_BYTES,
    AccountState,
    DenseShardStateStore,
    StateRegistry,
)
from repro.errors import ChainError, ValidationError


class TestAccountState:
    def test_defaults(self):
        state = AccountState()
        assert state.balance == 0.0
        assert state.nonce == 0

    def test_negative_construction_rejected(self):
        with pytest.raises(ValidationError):
            AccountState(balance=-1.0)
        with pytest.raises(ValidationError):
            AccountState(nonce=-1)


def _store() -> DenseShardStateStore:
    """Shard 0's store of a one-shard registry of ids below 16."""
    return StateRegistry(1, n_accounts=16).store_of(0)


class TestShardStateStore:
    def test_get_unknown_is_zero_state(self):
        store = _store()
        assert store.get(7) == AccountState()
        assert 7 not in store

    def test_credit_creates_account(self):
        store = _store()
        store.credit(7, 10.0)
        assert 7 in store
        assert store.get(7).balance == 10.0

    def test_debit_path(self):
        store = _store()
        store.credit(7, 10.0)
        store.debit(7, 4.0)
        assert store.get(7).balance == 6.0
        with pytest.raises(ChainError):
            store.debit(7, 100.0)

    def test_negative_amounts_rejected(self):
        store = _store()
        store.credit(7, 1.0)
        with pytest.raises(ValidationError):
            store.credit(7, -1.0)
        with pytest.raises(ValidationError):
            store.debit(7, -1.0)
        assert store.get(7) == AccountState(balance=1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_amounts_rejected_before_any_write(self, bad):
        registry = StateRegistry(2, n_accounts=4)
        store = registry.store_of(0)
        store.credit(0, 5.0)
        with pytest.raises(ValidationError, match="finite"):
            store.credit(1, bad)
        with pytest.raises(ValidationError, match="finite"):
            store.debit(0, bad)
        with pytest.raises(ValidationError, match="finite"):
            store.credit_many(np.array([0, 1]), np.array([1.0, bad]))
        with pytest.raises(ValidationError, match="finite"):
            store.apply_many(
                np.array([0, 1]), np.array([-1.0, bad]), np.array([0])
            )
        assert store.get(0) == AccountState(balance=5.0)
        assert 1 not in store
        assert registry.total_balance() == 5.0

    def test_remove_for_migration(self):
        store = _store()
        store.credit(7, 10.0)
        state = store.remove(7)
        assert state.balance == 10.0
        assert 7 not in store
        with pytest.raises(ChainError):
            store.remove(7)

    def test_total_balance(self):
        store = _store()
        store.credit(1, 3.0)
        store.credit(2, 4.0)
        assert store.total_balance() == 7.0

    def test_state_root_deterministic_and_order_free(self):
        a = _store()
        a.credit(1, 3.0)
        a.credit(2, 4.0)
        b = _store()
        b.credit(2, 4.0)
        b.credit(1, 3.0)
        assert a.state_root() == b.state_root()

    def test_state_root_changes_with_state(self):
        store = _store()
        store.credit(1, 3.0)
        before = store.state_root()
        store.credit(1, 1.0)
        assert store.state_root() != before


class TestStateRegistry:
    def test_store_lookup(self):
        registry = StateRegistry(k=3, n_accounts=8)
        assert registry.store_of(2).shard_id == 2
        with pytest.raises(ValidationError):
            registry.store_of(3)

    def test_locate(self):
        registry = StateRegistry(k=2, n_accounts=8)
        registry.store_of(1).credit(7, 1.0)
        assert registry.locate(7) == 1
        assert registry.locate(8) is None

    def test_migrate_moves_state_and_preserves_balance(self):
        registry = StateRegistry(k=2, n_accounts=8)
        registry.store_of(0).credit(7, 9.0)
        before = registry.total_balance()
        moved = registry.migrate(7, 0, 1)
        assert moved == STATE_RECORD_BYTES
        assert registry.locate(7) == 1
        assert registry.store_of(1).get(7).balance == 9.0
        assert registry.total_balance() == before

    def test_migrate_untouched_account_is_free(self):
        registry = StateRegistry(k=2, n_accounts=8)
        assert registry.migrate(7, 0, 1) == 0

    def test_migrate_batch_rejects_repeated_account_unchanged(self):
        """A repeated account would be moved twice; the batch is
        refused before any store changes."""
        registry = StateRegistry(k=4, n_accounts=8)
        registry.store_of(0).credit(1, 5.0)
        registry.store_of(0).credit(2, 9.0)

        def snapshot():
            return [
                (len(store), store.state_root(), store.total_balance())
                for store in registry.stores
            ]

        before = snapshot()
        with pytest.raises(ValidationError, match="account 1 repeats"):
            registry.migrate_batch(np.array([1, 1]), np.array([2, 3]))
        assert snapshot() == before
        assert registry.locate(1) == 0
        # Fresh accounts still become resident afterwards.
        registry.store_of(0).credit(3, 7.0)
        registry.store_of(0).credit(4, 7.0)
        assert registry.total_balance() == 28.0

    def test_rejects_bad_k(self):
        with pytest.raises(ValidationError):
            StateRegistry(k=0, n_accounts=8)
