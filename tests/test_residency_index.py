"""Residency-index-vs-locate equivalence, and dense-store compaction.

The registry's :class:`ResidencyIndex` replaces the O(k) store scan on
the migration path, and it is load-bearing: a relay settlement can
leave account state resident off the phi shard (or on *two* shards),
so the index must report exactly what the scan reports under any
interleaving of execution, migration and settlement. The property
suite here drives the production registry and the dict-store oracle
registry of ``state_reference`` through randomized op streams and
compares ``locate`` (index) against ``locate_scan`` (the scan oracle)
after every step; the oracle's dict stores maintain the same shared
index, so this also checks the oracle itself.

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
from repro.chain.state import ResidencyIndex, StateRegistry
from repro.chain.transaction import TransactionBatch
from repro.errors import StateMigrationError

N_ACCOUNTS = 30
K = 4


def _assert_index_matches_scan(registry: StateRegistry) -> None:
    ids = np.arange(N_ACCOUNTS + 5, dtype=np.int64)  # includes unknown ids
    expected = [locate_scan(registry, int(a)) for a in ids]
    for account, want in zip(ids.tolist(), expected):
        assert registry.locate(account) == want, account
    packed = registry.locate_many(ids)
    assert packed.tolist() == [-1 if w is None else w for w in expected]


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


@settings(max_examples=40, deadline=None)
@given(ops=_OPS, seed=st.integers(0, 1_000), backend=st.sampled_from(STATE_BACKENDS))
def test_index_equals_scan_under_execute_migrate_settle(ops, seed, backend):
    rng = np.random.default_rng(seed)
    mapping = ShardMapping(rng.integers(0, K, size=N_ACCOUNTS), k=K)
    registry = make_registry(backend, K, n_accounts=N_ACCOUNTS)
    executor = CrossShardExecutor(registry, mapping, relay_delay_blocks=2)
    executor.fund_many(
        np.arange(N_ACCOUNTS, dtype=np.int64),
        rng.integers(0, 30, size=N_ACCOUNTS).astype(np.float64),
    )
    _assert_index_matches_scan(registry)

    block = 0
    for op in ops:
        if op[0] == "execute":
            _, rows = op
            senders = np.array([r[0] for r in rows], dtype=np.int64)
            receivers = np.array([r[1] for r in rows], dtype=np.int64)
            amounts = np.array([r[2] for r in rows], dtype=np.float64)
            executor.execute_block(
                block,
                TransactionBatch(
                    senders, receivers, np.full(len(rows), block), amounts
                ),
            )
            block += 1
        elif op[0] == "migrate":
            _, account, to_shard = op
            mapping.assign(account, to_shard)
            executor.apply_migration_batch(
                np.array([account]), np.array([to_shard])
            )
        else:
            _, gap = op
            block += gap
            executor.execute_block(block, [])
            block += 1
        _assert_index_matches_scan(registry)

    # Flush everything and check once more at quiescence.
    executor.settle_all(from_block=block)
    _assert_index_matches_scan(registry)


@settings(max_examples=25, deadline=None)
@given(ops=_OPS, seed=st.integers(0, 1_000))
def test_dict_and_dense_agree_on_residency(ops, seed):
    """Oracle and production walk one op stream to the same residency."""
    registries = {}
    for backend in STATE_BACKENDS:
        rng = np.random.default_rng(seed)
        mapping = ShardMapping(rng.integers(0, K, size=N_ACCOUNTS), k=K)
        registry = make_registry(backend, K, n_accounts=N_ACCOUNTS)
        executor = CrossShardExecutor(registry, mapping, relay_delay_blocks=1)
        executor.fund_many(
            np.arange(N_ACCOUNTS, dtype=np.int64),
            rng.integers(0, 30, size=N_ACCOUNTS).astype(np.float64),
        )
        block = 0
        for op in ops:
            if op[0] == "execute":
                _, rows = op
                executor.execute_block(
                    block,
                    TransactionBatch(
                        np.array([r[0] for r in rows], dtype=np.int64),
                        np.array([r[1] for r in rows], dtype=np.int64),
                        np.full(len(rows), block),
                        np.array([r[2] for r in rows], dtype=np.float64),
                    ),
                )
                block += 1
            elif op[0] == "migrate":
                _, account, to_shard = op
                mapping.assign(account, to_shard)
                executor.apply_migration_batch(
                    np.array([account]), np.array([to_shard])
                )
            else:
                block += op[1]
                executor.execute_block(block, [])
                block += 1
        registries[backend] = registry
    ids = np.arange(N_ACCOUNTS, dtype=np.int64)
    assert (
        registries[BACKEND_DICT].locate_many(ids).tolist()
        == registries[BACKEND_DENSE].locate_many(ids).tolist()
    )


class TestWideShardCounts:
    """k > 63: the multi-word mask must keep index == scan."""

    K_WIDE = 80

    @settings(max_examples=20, deadline=None)
    @given(ops=_OPS, seed=st.integers(0, 1_000), backend=st.sampled_from(STATE_BACKENDS))
    def test_index_equals_scan_at_k80(self, ops, seed, backend):
        rng = np.random.default_rng(seed)
        k = self.K_WIDE
        mapping = ShardMapping(rng.integers(0, k, size=N_ACCOUNTS), k=k)
        registry = make_registry(backend, k, n_accounts=N_ACCOUNTS)
        executor = CrossShardExecutor(registry, mapping, relay_delay_blocks=2)
        executor.fund_many(
            np.arange(N_ACCOUNTS, dtype=np.int64),
            rng.integers(0, 30, size=N_ACCOUNTS).astype(np.float64),
        )
        _assert_index_matches_scan(registry)
        block = 0
        for op in ops:
            if op[0] == "execute":
                _, rows = op
                executor.execute_block(
                    block,
                    TransactionBatch(
                        np.array([r[0] for r in rows], dtype=np.int64),
                        np.array([r[1] for r in rows], dtype=np.int64),
                        np.full(len(rows), block),
                        np.array([r[2] for r in rows], dtype=np.float64),
                    ),
                )
                block += 1
            elif op[0] == "migrate":
                _, account, to_shard = op
                # Spread migrations across the whole wide shard range.
                wide_shard = to_shard * (k // K)
                mapping.assign(account, wide_shard)
                executor.apply_migration_batch(
                    np.array([account]), np.array([wide_shard])
                )
            else:
                block += op[1]
                executor.execute_block(block, [])
                block += 1
            _assert_index_matches_scan(registry)
        executor.settle_all(from_block=block)
        _assert_index_matches_scan(registry)

    def test_word_boundary_shards(self):
        """Shards 63, 64 and 127 straddle the 64-bit word boundary."""
        index = ResidencyIndex(8, n_shards=130)
        assert index.n_words == 3
        index.add(127, 1)
        index.add(64, 1)
        assert index.get_shard(1) == 64
        index.add(63, 1)
        assert index.get_shard(1) == 63
        index.discard(63, 1)
        index.discard(64, 1)
        assert index.get_shard(1) == 127
        assert index.shards_of(np.array([1, 0])).tolist() == [127, -1]
        index.discard(127, 1)
        assert index.get_shard(1) is None

    def test_bulk_ops_across_words(self):
        index = ResidencyIndex(16, n_shards=100)
        accounts = np.array([2, 5, 9], dtype=np.int64)
        index.add_many(75, accounts)
        assert index.shards_of(np.arange(16)).tolist() == [
            75 if i in (2, 5, 9) else -1 for i in range(16)
        ]
        index.discard_many(75, np.array([5], dtype=np.int64))
        assert index.get_shard(5) is None
        assert index.get_shard(9) == 75

    def test_spill_dict_handles_wide_shards(self):
        index = ResidencyIndex(4, n_shards=100)
        index.add(90, 1_000)  # beyond capacity -> spill dict
        assert index.get_shard(1_000) == 90
        assert index.shards_of(np.array([1_000, 0])).tolist() == [90, -1]
        index.discard(90, 1_000)
        assert index.get_shard(1_000) is None


class TestResidencyIndexUnit:
    def test_lowest_shard_wins_on_multi_residency(self):
        index = ResidencyIndex(8)
        index.add(3, 1)
        index.add(1, 1)
        assert index.get_shard(1) == 1
        index.discard(1, 1)
        assert index.get_shard(1) == 3
        index.discard(3, 1)
        assert index.get_shard(1) is None

    def test_spill_ids_beyond_capacity(self):
        index = ResidencyIndex(4)
        index.add(2, 100)
        assert index.get_shard(100) == 2
        assert index.shards_of(np.array([100, 1])).tolist() == [2, -1]
        index.discard(2, 100)
        assert index.get_shard(100) is None

    def test_shards_of_vectorised_matches_scalar(self):
        index = ResidencyIndex(16)
        rng = np.random.default_rng(0)
        for _ in range(50):
            index.add(int(rng.integers(0, 8)), int(rng.integers(0, 16)))
        ids = np.arange(16, dtype=np.int64)
        packed = index.shards_of(ids)
        for account, got in zip(ids.tolist(), packed.tolist()):
            want = index.get_shard(account)
            assert got == (-1 if want is None else want)

    def test_add_many_discard_many(self):
        index = ResidencyIndex(10)
        index.add_many(5, np.array([1, 3, 3, 7], dtype=np.int64))
        assert index.get_shard(3) == 5
        index.discard_many(5, np.array([3, 7], dtype=np.int64))
        assert index.get_shard(3) is None
        assert index.get_shard(1) == 5

    def test_registry_exposes_index_and_wrong_source_still_raises(self):
        registry = StateRegistry(3, n_accounts=8)
        assert isinstance(registry.residency_index, ResidencyIndex)
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
        directory/index, independent of k.
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
        # Directory (100 * 12) + index (100 * 8), no columns yet.
        assert base == 100 * (4 + 8) + 100 * 8
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
        # plus the shared directory and index — churn-independent.
        directory_and_index = n_accounts * (4 + 8) + n_accounts * 8
        assert after <= 2 * n_accounts * 16 + directory_and_index
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
            beacon, executor=executor, compact_slack=0.5
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
        report = reconfigurator.run(0, mapping)
        assert report.compacted_bytes > 0
        assert registry.total_balance() == n_accounts * 1.0
        assert registry.locate(0) == 1

    def test_reconfigurator_without_threshold_never_compacts(self):
        from repro.chain.beacon import BeaconChain
        from repro.chain.epoch import EpochReconfigurator

        reconfigurator = EpochReconfigurator(BeaconChain())
        assert reconfigurator.compact_slack is None
        report = reconfigurator.run(0, ShardMapping(np.zeros(4, dtype=np.int64), k=2))
        assert report.compacted_bytes == 0.0
