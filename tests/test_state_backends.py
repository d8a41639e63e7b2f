"""Dense store vs the dict-store oracle, and migration semantics.

The dense store must be observably identical to the scalar-dict store
kept in ``state_reference``: same balances, nonces, membership, state
roots and totals under any interleaving of scalar ops, columnar bulk
ops, scalar and batched migrations and compaction. The property suite
here drives a production registry and the oracle registry through the
same randomized op streams and compares them after every step; the
targeted cases below pin the same equivalence at multi-word residency
scale (k > 64), for ids spilled past the slot directory capacity, and
for compact-time spill re-homing.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from state_reference import (
    STATE_BACKENDS,
    ShardStateStore,
    dict_registry,
    locate_scan,
    make_registry,
)

from repro.chain.state import (
    STATE_RECORD_BYTES,
    AccountState,
    DenseShardStateStore,
    StateRegistry,
)
from repro.errors import ChainError, StateMigrationError, ValidationError

N_ACCOUNTS = 24
K = 3


def _registries():
    dict_reg = dict_registry(K, n_accounts=N_ACCOUNTS)
    dense_reg = StateRegistry(K, n_accounts=N_ACCOUNTS)
    return dict_reg, dense_reg


def _assert_equivalent(dict_reg: StateRegistry, dense_reg: StateRegistry):
    for shard in range(K):
        a = dict_reg.store_of(shard)
        b = dense_reg.store_of(shard)
        assert len(a) == len(b)
        assert sorted(a.accounts()) == sorted(b.accounts())
        assert a.state_root() == b.state_root()
        for account in a.accounts():
            assert a.get(account) == b.get(account)
    # Integer-valued balances sum exactly under both fsum and np.sum.
    assert dict_reg.total_balance() == dense_reg.total_balance()


_ACCOUNT = st.integers(0, N_ACCOUNTS - 1)
_AMOUNT = st.integers(0, 40)

_SCALAR_AND_BULK_OPS = (
    st.tuples(st.just("credit"), _ACCOUNT, _AMOUNT),
    st.tuples(st.just("debit"), _ACCOUNT, _AMOUNT),
    st.tuples(st.just("put"), _ACCOUNT, _AMOUNT),
    st.tuples(st.just("migrate"), _ACCOUNT, st.integers(0, K - 1)),
    st.tuples(
        st.just("credit_many"),
        st.lists(st.tuples(_ACCOUNT, _AMOUNT), min_size=1, max_size=6),
    ),
)

_OPS = st.lists(st.one_of(*_SCALAR_AND_BULK_OPS), max_size=40)

# Adds batched migration and compaction, which move dense slots around.
_CHURN_OPS = st.lists(
    st.one_of(
        *_SCALAR_AND_BULK_OPS,
        st.tuples(
            st.just("migrate_batch"),
            st.lists(
                st.tuples(_ACCOUNT, st.integers(0, K - 1)),
                min_size=1,
                max_size=8,
                unique_by=lambda t: t[0],
            ),
        ),
        st.tuples(st.just("compact")),
    ),
    max_size=40,
)


def _shard_of(account: int) -> int:
    return account % K


def _apply_and_compare(ops):
    """Drive oracle and production through ``ops``, comparing each step."""
    dict_reg, dense_reg = _registries()
    for op in ops:
        kind = op[0]
        if kind in ("credit", "debit", "put"):
            _, account, amount = op
            shard = _shard_of(account)
            stores = (dict_reg.store_of(shard), dense_reg.store_of(shard))
            if kind == "credit":
                results = [s.credit(account, float(amount)) for s in stores]
                assert results[0] == results[1]
            elif kind == "put":
                state = AccountState(balance=float(amount), nonce=amount % 5)
                for s in stores:
                    s.put(account, state)
            else:
                outcomes = []
                for s in stores:
                    try:
                        outcomes.append(s.debit(account, float(amount)))
                    except ChainError:
                        outcomes.append("overdraft")
                assert outcomes[0] == outcomes[1]
        elif kind == "migrate":
            _, account, to_shard = op
            outcomes = []
            for reg in (dict_reg, dense_reg):
                current = reg.locate(account)
                from_shard = current if current is not None else _shard_of(account)
                if from_shard == to_shard:
                    outcomes.append("same")
                    continue
                outcomes.append(reg.migrate(account, from_shard, to_shard))
            assert outcomes[0] == outcomes[1]
        elif kind == "migrate_batch":
            _, entries = op
            accounts = np.array([e[0] for e in entries], dtype=np.int64)
            targets = np.array([e[1] for e in entries], dtype=np.int64)
            moved = [
                reg.migrate_batch(accounts, targets)
                for reg in (dict_reg, dense_reg)
            ]
            assert moved[0] == moved[1]
        elif kind == "credit_many":
            _, entries = op
            accounts = np.array([e[0] for e in entries], dtype=np.int64)
            amounts = np.array([e[1] for e in entries], dtype=np.float64)
            shards = accounts % K
            for shard in np.unique(shards).tolist():
                mask = shards == shard
                dict_reg.store_of(shard).credit_many(
                    accounts[mask], amounts[mask]
                )
                dense_reg.store_of(shard).credit_many(
                    accounts[mask], amounts[mask]
                )
        elif kind == "compact":
            for reg in (dict_reg, dense_reg):
                reg.compact_stores(min_slack=0.0)
        _assert_equivalent(dict_reg, dense_reg)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_backends_are_observably_identical(ops):
    _apply_and_compare(ops)


@settings(max_examples=60, deadline=None)
@given(ops=_CHURN_OPS)
def test_backends_stay_identical_through_batched_migration_and_compaction(ops):
    _apply_and_compare(ops)


def _assert_registries_match(reference: StateRegistry, other: StateRegistry):
    for shard in range(reference.k):
        a, b = reference.store_of(shard), other.store_of(shard)
        assert sorted(a.accounts()) == sorted(b.accounts())
        assert a.state_root() == b.state_root()
    assert reference.total_balance() == other.total_balance()


def _spilled(store: DenseShardStateStore) -> int:
    """Residents held in the spill dict rather than a column slot."""
    return len(store) - store.slot_stats()["live_slots"]


class TestLargeKMultiWordResidency:
    """k > 64 drives the residency index into multi-word bitmasks; the
    dense store must stay root-identical to the dict store through
    batched churn and compaction at that scale."""

    K_LARGE = 80
    N = 640

    def test_batched_churn_is_root_identical_at_k80(self):
        registries = tuple(
            make_registry(b, self.K_LARGE, n_accounts=self.N)
            for b in STATE_BACKENDS
        )
        rng = np.random.default_rng(17)
        home = rng.integers(0, self.K_LARGE, size=self.N)
        ids = np.arange(self.N, dtype=np.int64)
        for reg in registries:
            for shard in range(self.K_LARGE):
                members = ids[home == shard]
                if len(members):
                    reg.store_of(shard).put_many(
                        members,
                        np.full(len(members), 3.0),
                        np.zeros(len(members), dtype=np.int64),
                    )
        for round_index in range(6):
            churn = rng.choice(self.N, size=self.N // 3, replace=False)
            targets = rng.integers(
                0, self.K_LARGE, size=len(churn), dtype=np.int64
            )
            moved = {
                reg.migrate_batch(churn.astype(np.int64), targets)
                for reg in registries
            }
            assert len(moved) == 1
            if round_index % 2:
                for reg in registries:
                    reg.compact_stores(min_slack=0.25)
            _assert_registries_match(*registries)
            locates = [reg.locate_many(ids).tolist() for reg in registries]
            assert locates[0] == locates[1]


class TestBeyondCapacitySpill:
    """Ids past the preallocated capacity live in the spill dict; the
    dense store must treat them exactly like the dict store does,
    through compaction included."""

    def test_spilled_ids_stay_equivalent_through_compact(self):
        capacity = 8
        registries = tuple(
            make_registry(b, 2, n_accounts=capacity)
            for b in STATE_BACKENDS
        )
        for reg in registries:
            s0, s1 = reg.store_of(0), reg.store_of(1)
            for account in range(capacity):  # fill the dense columns
                s0.credit(account, 2.0)
            for account in range(capacity, capacity + 5):  # spill
                s0.put(account, AccountState(balance=7.0, nonce=1))
            s0.debit(capacity + 2, 3.0)
            reg.migrate(capacity + 3, 0, 1)
            s1.credit(capacity + 7, 9.0)
            reg.compact_stores(min_slack=0.0)
        _assert_registries_match(*registries)

    def test_beyond_capacity_ids_never_claim_slots(self):
        registry = StateRegistry(2, n_accounts=4)
        store = registry.store_of(0)
        store.put(11, AccountState(balance=1.0))
        store.compact()
        assert store.slot_stats()["capacity_slots"] == 0
        assert store.get(11) == AccountState(balance=1.0)


class TestSpillRehoming:
    """``compact()`` re-homes spill-dict accounts into fresh slots when
    capacity allows, instead of leaving them spilled indefinitely —
    with observable state (roots) untouched."""

    def test_compact_rehomes_freed_spill_entries(self):
        registry = StateRegistry(2, n_accounts=8)
        s0, s1 = registry.store_of(0), registry.store_of(1)
        s0.credit(3, 10.0)  # home resident of shard 0
        # Multi-residency: shard 1 must hold 3 too (relay settlement
        # shape) — in capacity but homed elsewhere, so it spills.
        s1.put(3, AccountState(balance=5.0, nonce=1))
        assert _spilled(s1) == 1
        s0.remove(3)  # the home residency ends; the spill copy stays
        root_before = s1.state_root()
        s1.compact()
        assert _spilled(s1) == 0
        assert s1.state_root() == root_before
        assert s1.get(3) == AccountState(balance=5.0, nonce=1)

    def test_compact_rehoming_matches_dict_backend(self):
        registries = tuple(
            make_registry(b, 2, n_accounts=8)
            for b in STATE_BACKENDS
        )
        for reg in registries:
            s0, s1 = reg.store_of(0), reg.store_of(1)
            for account in (1, 3, 5):
                s0.credit(account, 10.0)
                s1.put(account, AccountState(balance=5.0, nonce=1))
            s0.remove(3)
            s0.remove(5)
            reg.compact_stores(min_slack=0.0)
        dense_s1 = registries[1].store_of(1)
        assert _spilled(dense_s1) == 1  # 1 is still homed on shard 0
        _assert_registries_match(*registries)

    def test_spill_heavy_churn_shrinks_spill_and_keeps_roots(self):
        n = 32
        registry = StateRegistry(2, n_accounts=n)
        s0, s1 = registry.store_of(0), registry.store_of(1)
        for account in range(n):
            s0.credit(account, 1.0)
        # Spill half the universe into shard 1 while still homed at 0.
        for account in range(0, n, 2):
            s1.put(account, AccountState(balance=2.0, nonce=1))
        # End the home residencies, stranding the spill entries.
        for account in range(0, n, 2):
            s0.remove(account)
        assert _spilled(s1) == n // 2
        roots_before = [s.state_root() for s in registry.stores]
        registry.compact_stores(min_slack=0.0)
        assert _spilled(s1) == 0
        assert [s.state_root() for s in registry.stores] == roots_before
        assert registry.total_balance() == (n // 2) * 1.0 + (n // 2) * 2.0

    def test_still_homed_elsewhere_stays_spilled(self):
        registry = StateRegistry(2, n_accounts=8)
        s0, s1 = registry.store_of(0), registry.store_of(1)
        s0.credit(3, 10.0)
        s1.put(3, AccountState(balance=5.0))
        s1.compact()  # 3 is still homed on shard 0: no legal slot here
        assert _spilled(s1) == 1
        assert s1.get(3) == AccountState(balance=5.0)


def _fragmentation(registry: StateRegistry) -> dict:
    """Free and live slots over every store's column capacity."""
    totals = {"free_slots": 0, "capacity_slots": 0, "live_slots": 0}
    for store in registry.stores:
        for key, value in store.slot_stats().items():
            totals[key] += value
    capacity = totals["capacity_slots"]
    return {
        "fragmentation": totals["free_slots"] / capacity if capacity else 0.0,
        "occupancy": totals["live_slots"] / capacity if capacity else 0.0,
        "live_slots": totals["live_slots"],
    }


class TestSlotTelemetry:
    def test_fragmentation_telemetry_reflects_churn(self):
        registry = StateRegistry(2, n_accounts=4096)
        ids = np.arange(4096, dtype=np.int64)
        registry.store_of(0).put_many(
            ids, np.ones(len(ids)), np.zeros(len(ids), dtype=np.int64)
        )
        full = _fragmentation(registry)
        assert full["occupancy"] == 1.0
        assert full["fragmentation"] == 0.0
        registry.migrate_batch(
            ids[::2], np.ones(len(ids[::2]), dtype=np.int64)
        )
        churned = _fragmentation(registry)
        assert 0.0 < churned["fragmentation"] < 1.0
        assert churned["live_slots"] == 4096
        registry.compact_stores(min_slack=0.0)
        compacted = _fragmentation(registry)
        assert compacted["fragmentation"] < churned["fragmentation"]
        assert registry.compaction_count >= 1
        assert registry.compact_moved_bytes_total > 0


class TestDenseFallback:
    """Ids beyond the preallocated capacity spill into the dict fallback."""

    def test_sparse_ids_behave_like_dict_store(self):
        dense = DenseShardStateStore(0, capacity=4)
        reference = ShardStateStore(0)
        for store in (dense, reference):
            store.credit(2, 10.0)      # in capacity
            store.credit(100, 7.0)     # beyond capacity
            store.debit(100, 3.0)
            store.credit_many(
                np.array([2, 100, 3]), np.array([1.0, 1.0, 5.0])
            )
        assert dense.state_root() == reference.state_root()
        assert dense.total_balance() == reference.total_balance()
        assert len(dense) == len(reference) == 3
        assert 100 in dense
        assert dense.get(100) == reference.get(100)

    def test_sparse_remove_and_migrate(self):
        registry = StateRegistry(2, n_accounts=4)
        registry.store_of(0).credit(50, 9.0)
        moved = registry.migrate(50, 0, 1)
        assert moved == STATE_RECORD_BYTES
        assert registry.locate(50) == 1
        assert registry.store_of(1).get(50).balance == 9.0

    def test_mixed_put_many_spills_correctly(self):
        # One in-capacity id and one beyond it: the spill branch
        # ``migrate_batch`` takes for stragglers.
        dense = DenseShardStateStore(0, capacity=4)
        dense.put_many(
            np.array([1, 9]), np.array([5.0, 6.0]), np.array([1, 2])
        )
        assert dense.get(1) == AccountState(balance=5.0, nonce=1)
        assert dense.get(9) == AccountState(balance=6.0, nonce=2)


class TestMigrationSemantics:
    """Typed errors instead of silent drops / leaked KeyErrors."""

    @pytest.mark.parametrize("backend", STATE_BACKENDS)
    def test_wrong_source_shard_raises_typed_error(self, backend):
        registry = make_registry(backend, 3, n_accounts=8)
        registry.store_of(2).credit(5, 4.0)
        with pytest.raises(StateMigrationError, match="resident on shard 2"):
            registry.migrate(5, 0, 1)
        # Nothing moved, nothing lost.
        assert registry.locate(5) == 2
        assert registry.total_balance() == 4.0

    @pytest.mark.parametrize("backend", STATE_BACKENDS)
    def test_unknown_account_migration_is_free_noop(self, backend):
        registry = make_registry(backend, 3, n_accounts=8)
        assert registry.migrate(5, 0, 1) == 0

    @pytest.mark.parametrize("backend", STATE_BACKENDS)
    def test_failed_take_many_leaves_state_untouched(self, backend):
        registry = make_registry(backend, 2, n_accounts=8)
        store = registry.store_of(0)
        store.credit(1, 5.0)
        store.credit(2, 7.0)
        root = store.state_root()
        with pytest.raises(ChainError, match="account 3 is not resident"):
            store.take_many(np.array([1, 2, 3], dtype=np.int64))
        assert registry.total_balance() == 12.0
        assert store.state_root() == root
        assert len(store) == 2
        for account in (1, 2, 3):
            assert registry.locate(account) == locate_scan(registry, account)

    def test_remove_raises_chain_error_not_key_error(self):
        for store in (ShardStateStore(0), DenseShardStateStore(0, capacity=4)):
            with pytest.raises(ChainError):
                store.remove(1)
            with pytest.raises(ChainError):
                store.remove(99)


class TestExactTotals:
    """fsum/np.sum accumulation keeps conservation checks tight."""

    def test_dict_total_is_exactly_rounded(self):
        store = ShardStateStore(0)
        store.credit(0, 1e16)
        for account in range(1, 11):
            store.credit(account, 1.0)
        # Naive left-to-right float accumulation loses every 1.0 against
        # 1e16; fsum keeps the exactly-rounded total.
        assert store.total_balance() == 1e16 + 10.0

    def test_registry_total_is_exactly_rounded_across_shards(self):
        registry = StateRegistry(4, n_accounts=4)
        registry.store_of(0).credit(0, 1e16)
        for shard in range(1, 4):
            registry.store_of(shard).credit(shard, 1.0)
        assert registry.total_balance() == 1e16 + 3.0

    def test_dense_total_uses_float64_pairwise_sum(self):
        dense = DenseShardStateStore(0, capacity=1000)
        dense.credit_many(
            np.arange(1000), np.full(1000, 0.1, dtype=np.float64)
        )
        assert dense.total_balance() == pytest.approx(
            math.fsum([0.1] * 1000), abs=1e-9
        )


class TestRegistryConstruction:
    def test_rejects_negative_capacity(self):
        with pytest.raises(ValidationError):
            StateRegistry(2, n_accounts=-1)

    def test_stores_are_sized_to_the_universe(self):
        registry = StateRegistry(2, n_accounts=10)
        assert all(isinstance(s, DenseShardStateStore) for s in registry.stores)
        assert all(s.capacity == 10 for s in registry.stores)
