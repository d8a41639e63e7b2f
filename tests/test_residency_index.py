"""Home-column residency vs the scan ``locate``, and dense compaction.

Single residency: every account's state lives on at most one shard,
its *home*, and ``StateRegistry.locate``/``locate_many`` are reads of
the slot directory's ``home`` column. The property suite here drives
the production registry and the dict-store oracle registry of
``state_reference`` through randomized execute/migrate/settle op
streams (at k = 16 and k = 80) and checks after every step that
``home`` equals the O(k) store scan and names the shard phi maps the
account to — receipt forwarding routes every deposit and refund
through the current mapping, so no settlement can leave state off its
home. The unit cases pin that a second residency or an id beyond
capacity raises instead.

The compaction contract rides along: per-shard local-slot columns must
cut the dense store's numpy footprint at least 4x against the old
full-universe-columns layout at k=16 / 1M accounts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from state_reference import (
    BACKEND_DENSE,
    BACKEND_DICT,
    STATE_BACKENDS,
    dict_registry,
    locate_scan,
    make_registry,
)

from repro.chain.crossshard import CrossShardExecutor
from repro.chain.mapping import ShardMapping
from repro.chain.state import AccountState, StateRegistry
from repro.chain.transaction import TransactionBatch
from repro.errors import (
    ResidencyError,
    StateMigrationError,
    UnknownAccountError,
)

N_ACCOUNTS = 30
K = 16


def _assert_home_matches_scan(
    registry: StateRegistry, mapping: ShardMapping
) -> None:
    ids = np.arange(N_ACCOUNTS + 5, dtype=np.int64)  # includes unknown ids
    expected = [locate_scan(registry, int(a)) for a in ids]
    for account, want in zip(ids.tolist(), expected):
        assert registry.locate(account) == want, account
    packed = registry.locate_many(ids)
    assert packed.tolist() == [-1 if w is None else w for w in expected]
    # Every account is funded at genesis, so each one is resident — on
    # exactly the shard phi names.
    assert packed[:N_ACCOUNTS].tolist() == mapping.as_array().tolist()


_OPS = st.lists(
    st.one_of(
        # One block of transfers: (senders, receivers, amounts).
        st.tuples(
            st.just("execute"),
            st.lists(
                st.tuples(
                    st.integers(0, N_ACCOUNTS - 1),
                    st.integers(0, N_ACCOUNTS - 1),
                    st.integers(0, 8),
                ),
                min_size=1,
                max_size=10,
            ),
        ),
        # Reassign an account's shard and move its state.
        st.tuples(
            st.just("migrate"),
            st.integers(0, N_ACCOUNTS - 1),
            st.integers(0, K - 1),
        ),
        # Advance blocks so pending receipts settle.
        st.tuples(st.just("settle"), st.integers(1, 3)),
    ),
    max_size=25,
)


def _run_ops(ops, k, backend, seed, relay_delay_blocks, spread=1, check=None):
    """Fund a registry, then replay ``ops`` through an executor.

    A migrate op's target shard is scaled by ``spread``; ``check`` runs
    on ``(registry, mapping)`` after funding and after every op.
    """
    check = check or (lambda *_: None)
    rng = np.random.default_rng(seed)
    mapping = ShardMapping(rng.integers(0, k, size=N_ACCOUNTS), k=k)
    registry = make_registry(backend, k, n_accounts=N_ACCOUNTS)
    executor = CrossShardExecutor(
        registry, mapping, relay_delay_blocks=relay_delay_blocks
    )
    executor.fund_many(
        np.arange(N_ACCOUNTS, dtype=np.int64),
        rng.integers(0, 30, size=N_ACCOUNTS).astype(np.float64),
    )
    check(registry, mapping)
    block = 0
    for op in ops:
        if op[0] == "execute":
            _, rows = op
            executor.execute_batch(
                TransactionBatch(
                    np.array([r[0] for r in rows], dtype=np.int64),
                    np.array([r[1] for r in rows], dtype=np.int64),
                    np.full(len(rows), block),
                    np.array([r[2] for r in rows], dtype=np.float64),
                )
            )
            block += 1
        elif op[0] == "migrate":
            _, account, to_shard = op
            shard = to_shard * spread
            mapping.assign(account, shard)
            registry.migrate_batch(np.array([account]), np.array([shard]))
        else:
            block += op[1]
            executor.settle(block)
            block += 1
        check(registry, mapping)
    # Flush everything and check once more at quiescence.
    executor.settle_all(from_block=block)
    check(registry, mapping)
    return registry


@settings(max_examples=40, deadline=None)
@given(ops=_OPS, seed=st.integers(0, 1_000), backend=st.sampled_from(STATE_BACKENDS))
def test_index_equals_scan_under_execute_migrate_settle(ops, seed, backend):
    _run_ops(ops, K, backend, seed, 2, check=_assert_home_matches_scan)


@settings(max_examples=25, deadline=None)
@given(ops=_OPS, seed=st.integers(0, 1_000))
def test_dict_and_dense_agree_on_residency(ops, seed):
    """Oracle and production walk one op stream to the same residency."""
    registries = {
        backend: _run_ops(ops, K, backend, seed, 1)
        for backend in STATE_BACKENDS
    }
    ids = np.arange(N_ACCOUNTS, dtype=np.int64)
    assert (
        registries[BACKEND_DICT].locate_many(ids).tolist()
        == registries[BACKEND_DENSE].locate_many(ids).tolist()
    )


class TestWideShardCounts:
    """k > 63: shard ids past one 64-bit word keep home == scan."""

    K_WIDE = 80

    @settings(max_examples=20, deadline=None)
    @given(ops=_OPS, seed=st.integers(0, 1_000), backend=st.sampled_from(STATE_BACKENDS))
    def test_index_equals_scan_at_k80(self, ops, seed, backend):
        k = self.K_WIDE
        # Spread migrations across the whole wide shard range.
        _run_ops(
            ops, k, backend, seed, 2, spread=k // K,
            check=_assert_home_matches_scan,
        )

    def test_word_boundary_shards(self):
        """Shards 63, 64 and 127 straddle a 64-bit word boundary."""
        registry = StateRegistry(130, n_accounts=8)
        registry.store_of(127).credit(1, 2.0)
        assert registry.locate(1) == 127
        registry.migrate(1, 127, 64)
        assert registry.locate(1) == 64
        registry.migrate(1, 64, 63)
        assert registry.locate_many(np.array([1, 0])).tolist() == [63, -1]
        registry.store_of(63).remove(1)
        assert registry.locate(1) is None

    def test_bulk_ops_across_words(self):
        registry = StateRegistry(100, n_accounts=16)
        store = registry.store_of(75)
        accounts = np.array([2, 5, 9], dtype=np.int64)
        store.put_many(accounts, np.ones(3), np.zeros(3, dtype=np.int64))
        assert registry.locate_many(np.arange(16)).tolist() == [
            75 if i in (2, 5, 9) else -1 for i in range(16)
        ]
        store.take_many(np.array([5], dtype=np.int64))
        assert registry.locate(5) is None
        assert registry.locate(9) == 75

    def test_beyond_capacity_raises_at_wide_k(self):
        registry = StateRegistry(100, n_accounts=4)
        with pytest.raises(UnknownAccountError):
            registry.store_of(90).credit(1_000, 1.0)
        assert registry.locate(1_000) is None
        assert registry.locate_many(np.array([1_000, 0])).tolist() == [-1, -1]


class TestResidencyIndexUnit:
    """``home`` is the residency index: one shard per account."""

    def test_second_residency_raises(self):
        registry = StateRegistry(8, n_accounts=8)
        registry.store_of(3).credit(1, 2.0)
        with pytest.raises(ResidencyError) as raised:
            registry.store_of(1).credit(1, 1.0)
        assert (raised.value.account, raised.value.home, raised.value.shard) == (
            1,
            3,
            1,
        )
        assert registry.locate(1) == 3
        assert len(registry.store_of(1)) == 0
        registry.store_of(3).remove(1)
        assert registry.locate(1) is None

    def test_spill_ids_beyond_capacity(self):
        registry = StateRegistry(4, n_accounts=4)
        with pytest.raises(UnknownAccountError):
            registry.store_of(2).put(100, AccountState(balance=1.0))
        assert registry.locate(100) is None
        assert registry.locate_many(np.array([100, 1])).tolist() == [-1, -1]

    def test_shards_of_vectorised_matches_scalar(self):
        registry = StateRegistry(8, n_accounts=16)
        rng = np.random.default_rng(0)
        for _ in range(50):
            account = int(rng.integers(0, 16))
            home = registry.locate(account)
            shard = int(rng.integers(0, 8)) if home is None else home
            registry.store_of(shard).credit(account, 1.0)
        ids = np.arange(16, dtype=np.int64)
        packed = registry.locate_many(ids)
        for account, got in zip(ids.tolist(), packed.tolist()):
            want = registry.locate(account)
            assert got == (-1 if want is None else want)

    def test_add_many_discard_many(self):
        registry = StateRegistry(6, n_accounts=10)
        store = registry.store_of(5)
        store.credit_many(
            np.array([1, 3, 3, 7], dtype=np.int64), np.ones(4)
        )
        assert registry.locate(3) == 5
        assert store.get(3).balance == 2.0
        store.take_many(np.array([3, 7], dtype=np.int64))
        assert registry.locate(3) is None
        assert registry.locate(1) == 5

    def test_wrong_source_still_raises(self):
        registry = StateRegistry(3, n_accounts=8)
        registry.store_of(2).credit(5, 4.0)
        assert registry.locate(5) == 2
        with pytest.raises(StateMigrationError, match="resident on shard 2"):
            registry.migrate(5, 0, 1)


class TestDenseCompactionMemory:
    def test_compacted_columns_cut_memory_4x_at_k16_1m(self):
        """Per-shard local slots vs full-universe columns: >= 4x smaller.

        The pre-compaction layout allocated per shard one float64
        balance column, one int64 nonce column and one bool residency
        bitmap over the whole universe: k * n * 17 bytes. The compacted
        layout holds one slot per live account plus the shared
        directory, independent of k.
        """
        n_accounts, k = 1_000_000, 16
        registry = StateRegistry(k=k, n_accounts=n_accounts)
        mapping = ShardMapping(
            np.random.default_rng(0).integers(0, k, size=n_accounts), k=k
        )
        executor = CrossShardExecutor(registry, mapping)
        executor.fund_many(np.arange(n_accounts, dtype=np.int64), 1.0)
        old_layout_nbytes = k * n_accounts * (8 + 8 + 1)
        compacted = registry.state_memory_nbytes()
        assert compacted > 0
        assert compacted * 4 <= old_layout_nbytes, (
            f"compacted dense state ({compacted / 1e6:.1f} MB) must be >= 4x "
            f"below the full-universe layout ({old_layout_nbytes / 1e6:.1f} MB)"
        )

    def test_memory_accounting_counts_columns_directory_and_index(self):
        registry = StateRegistry(k=2, n_accounts=100)
        base = registry.state_memory_nbytes()
        # Directory (100 * 12: int32 home + int64 slot, home being the
        # residency index), no columns yet.
        assert base == 100 * (4 + 8)
        registry.store_of(0).credit(1, 5.0)
        assert registry.state_memory_nbytes() > base


class TestDenseCompaction:
    """compact(): vacated columns shrink after migration churn."""

    def _churned_registry(self, n_accounts=5_000, k=4):
        """Adversarial churn: every account funnels onto one shard.

        Each store allocates slots for arriving accounts while the
        migrations away leave its own columns full of holes — the
        free-list growth the compaction pass exists to reclaim.
        """
        registry = StateRegistry(k=k, n_accounts=n_accounts)
        mapping = ShardMapping(
            np.random.default_rng(0).integers(0, k, size=n_accounts), k=k
        )
        executor = CrossShardExecutor(registry, mapping)
        executor.fund_many(np.arange(n_accounts, dtype=np.int64), 1.0)
        accounts = np.arange(n_accounts, dtype=np.int64)
        for target in (1, 2, 3, 0, 1):
            to_shards = np.full(n_accounts, target, dtype=np.int64)
            registry.migrate_batch(accounts, to_shards)
        return registry

    def test_compact_bounds_nbytes_after_churn(self):
        n_accounts = 5_000
        registry = self._churned_registry(n_accounts=n_accounts)
        roots_before = [s.state_root() for s in registry.stores]
        before = registry.state_memory_nbytes()
        reclaimed = registry.compact_stores(min_slack=0.25)
        assert reclaimed > 0
        after = registry.state_memory_nbytes()
        assert after == before - reclaimed
        # Bound: live slots (16 B each, power-of-two headroom <= 2x)
        # plus the shared directory — churn-independent.
        directory = n_accounts * (4 + 8)
        assert after <= 2 * n_accounts * 16 + directory
        # Observable state is untouched.
        assert [s.state_root() for s in registry.stores] == roots_before
        assert registry.total_balance() == n_accounts * 1.0
        ids = np.arange(n_accounts, dtype=np.int64)
        assert registry.locate_many(ids).tolist() == [
            locate_scan(registry, int(a)) for a in ids
        ]

    def test_threshold_gates_compaction(self):
        registry = self._churned_registry()
        # An absurd slack threshold: nothing qualifies, nothing changes.
        before = registry.state_memory_nbytes()
        assert registry.compact_stores(min_slack=1e9) == 0
        assert registry.state_memory_nbytes() == before

    def test_store_stays_usable_after_compaction(self):
        registry = self._churned_registry(n_accounts=200)
        registry.compact_stores(min_slack=0.0)
        store = registry.store_of(1)
        store.credit(7, 5.0)
        state = store.get(7)
        assert state.balance == 6.0  # 1.0 funded + 5.0 credited
        moved = registry.migrate_batch(
            np.array([7], dtype=np.int64), np.array([2], dtype=np.int64)
        )
        assert moved > 0
        assert registry.locate(7) == 2

    def test_dict_backend_compaction_is_a_free_noop(self):
        """The oracle's dict stores hold no columns to compact."""
        registry = dict_registry(2, n_accounts=10)
        registry.store_of(0).credit(1, 2.0)
        assert registry.compact_stores(min_slack=0.0) == 0

    def test_reconfigurator_compacts_behind_threshold(self):
        from repro.chain.beacon import BeaconChain
        from repro.chain.epoch import EpochReconfigurator
        from repro.chain.migration import MigrationRequestBatch

        n_accounts, k = 2_000, 4
        registry = StateRegistry(k=k, n_accounts=n_accounts)
        mapping = ShardMapping(np.zeros(n_accounts, dtype=np.int64), k=k)
        executor = CrossShardExecutor(registry, mapping)
        executor.fund_many(np.arange(n_accounts, dtype=np.int64), 1.0)
        beacon = BeaconChain()
        reconfigurator = EpochReconfigurator(
            beacon,
            registry,
            executor.network_transport.bus,
            compact_slack=0.5,
        )
        accounts = np.arange(n_accounts, dtype=np.int64)
        # Epoch 0: everyone leaves shard 0 -> its columns are all holes.
        beacon.submit_batch(
            MigrationRequestBatch(
                accounts,
                np.zeros(n_accounts, dtype=np.int64),
                np.full(n_accounts, 1, dtype=np.int64),
                epoch=0,
            )
        )
        beacon.commit_epoch(epoch=0, capacity=None, mapping=mapping)
        assert reconfigurator.run(0, mapping) == n_accounts
        assert registry.compaction_count > 0
        assert registry.compacted_bytes_total > 0
        assert registry.total_balance() == n_accounts * 1.0
        assert registry.locate(0) == 1

    def test_reconfigurator_without_threshold_never_compacts(self):
        from repro.chain.beacon import BeaconChain
        from repro.chain.epoch import EpochReconfigurator
        from repro.chain.netsim import NETWORK_IDEAL, MessageBus, NetworkModel

        from repro.chain.migration import MigrationRequestBatch

        registry = StateRegistry(k=2, n_accounts=4)
        registry.store_of(0).credit_many(np.arange(4), np.ones(4))
        beacon = BeaconChain()
        reconfigurator = EpochReconfigurator(
            beacon, registry, MessageBus(NetworkModel(NETWORK_IDEAL))
        )
        assert reconfigurator.compact_slack is None
        # Everyone leaves shard 0: its columns are all holes, yet no
        # compaction runs without a threshold.
        beacon.submit_batch(
            MigrationRequestBatch(np.arange(4), np.zeros(4), np.ones(4))
        )
        beacon.commit_epoch(epoch=0)
        mapping = ShardMapping(np.zeros(4, dtype=np.int64), k=2)
        assert reconfigurator.run(0, mapping) == 4
        assert registry.store_of(0).slack_slots() == 4
        assert registry.compaction_count == 0
        assert registry.compacted_bytes_total == 0
