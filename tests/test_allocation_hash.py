"""Unit tests for hash-based static allocation."""

import numpy as np
import pytest

from repro.allocation import hash_based
from repro.allocation.base import UpdateContext
from repro.allocation.hash_based import (
    HashAllocator,
    hash_shard_of_address,
)
from repro.chain.account import address_from_id
from repro.chain.mapping import ShardMapping
from repro.chain.transaction import TransactionBatch
from repro.errors import ConfigurationError


class TestHashRules:
    def test_deterministic(self):
        addr = "0x" + "ab" * 20
        assert hash_shard_of_address(addr, 16) == hash_shard_of_address(addr, 16)

    def test_in_range(self):
        for i in range(50):
            addr = f"0x{i:040x}"
            assert 0 <= hash_shard_of_address(addr, 7) < 7

    def test_case_insensitive(self):
        addr = "0x" + "AB" * 20
        assert hash_shard_of_address(addr, 16) == hash_shard_of_address(
            addr.lower(), 16
        )

    def test_roughly_uniform(self):
        counts = np.zeros(4)
        for i in range(2000):
            counts[hash_shard_of_address(f"0x{i:040x}", 4)] += 1
        assert counts.min() > 2000 / 4 * 0.8

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError):
            hash_shard_of_address("0x" + "00" * 20, 0)


class TestHashAllocator:
    def test_initialize_covers_universe(self, tiny_trace, params):
        allocator = HashAllocator()
        mapping = allocator.initialize(tiny_trace, params)
        assert mapping.n_accounts == tiny_trace.n_accounts
        assert mapping.k == params.k

    def test_static_update_keeps_mapping(self, tiny_trace, params):
        allocator = HashAllocator()
        mapping = allocator.initialize(tiny_trace, params)
        context = UpdateContext(
            epoch=0,
            params=params,
            committed=tiny_trace.batch[:100],
            mempool=tiny_trace.batch[100:200],
            capacity=100.0,
        )
        update = allocator.update(mapping, context)
        assert update.mapping is mapping
        assert update.migrations == 0
        assert update.unit_time >= 0

    def test_place_new_accounts_matches_initialize(self, tiny_trace, params):
        allocator = HashAllocator()
        mapping = allocator.initialize(tiny_trace, params)
        new_ids = np.array([3, 7, 11])
        placed = allocator.place_new_accounts(new_ids, mapping)
        for account, shard in zip(new_ids, placed):
            assert shard == mapping.shard_of(int(account))

    def test_each_account_is_hashed_once(self, tiny_trace, params, monkeypatch):
        """``initialize`` hashes every history account; placement reuses
        those shards and hashes only ids beyond the history."""
        calls = []
        real = hash_based.hash_shard_of_address

        def counting(address, k):
            calls.append(address)
            return real(address, k)

        monkeypatch.setattr(hash_based, "hash_shard_of_address", counting)
        allocator = HashAllocator()
        mapping = allocator.initialize(tiny_trace, params)
        n = tiny_trace.n_accounts
        assert len(calls) == n
        new_ids = np.array([3, 7, n, n + 2, 11])
        placed = allocator.place_new_accounts(new_ids, mapping)
        assert len(calls) == n + 2
        assert len(set(calls)) == len(calls)
        expected = [real(address_from_id(int(a)), params.k) for a in new_ids]
        assert placed.tolist() == expected

    def test_engine_run_places_by_hash(self, tiny_trace, params):
        """Placement reads the array of the mapping ``initialize`` returned,
        so it is only right while that mapping never takes a shard other
        than an id's hash. Over an executed run (placements, updates and
        the epoch's migration step) every placement is still the fresh
        hash and the shared array still holds every account's hash."""
        from repro.sim.engine import Simulation, SimulationConfig

        placements = {}

        class Recording(HashAllocator):
            def place_new_accounts(self, new_account_ids, mapping, context=None):
                placed = super().place_new_accounts(
                    new_account_ids, mapping, context
                )
                ids = np.asarray(new_account_ids).tolist()
                placements.update(zip(ids, placed.tolist()))
                return placed

        allocator = Recording()
        config = SimulationConfig(
            params=params, history_fraction=0.5, execute_values=True
        )
        Simulation(tiny_trace, allocator, config).run()
        assert placements
        for account, shard in placements.items():
            assert shard == hash_shard_of_address(
                address_from_id(account), params.k
            )
        assert allocator._hashed.tolist() == [
            hash_shard_of_address(address_from_id(a), params.k)
            for a in range(tiny_trace.n_accounts)
        ]

    def test_placement_under_another_k_hashes_again(self, tiny_trace, params):
        allocator = HashAllocator()
        allocator.initialize(tiny_trace, params)
        other = ShardMapping(np.zeros(tiny_trace.n_accounts, dtype=int), k=3)
        placed = allocator.place_new_accounts(np.array([0, 5]), other)
        assert placed.tolist() == [
            hash_shard_of_address(address_from_id(a), 3) for a in (0, 5)
        ]

    def test_balanced_shards(self, tiny_trace, params):
        allocator = HashAllocator()
        mapping = allocator.initialize(tiny_trace, params)
        sizes = mapping.shard_sizes()
        assert sizes.min() > 0.6 * sizes.mean()
