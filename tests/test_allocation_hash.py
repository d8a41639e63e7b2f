"""Unit tests for hash-based static allocation."""

import numpy as np
import pytest

from repro.allocation.base import UpdateContext
from repro.allocation.hash_based import (
    HashAllocator,
    hash_shard_of_address,
)
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

    def test_balanced_shards(self, tiny_trace, params):
        allocator = HashAllocator()
        mapping = allocator.initialize(tiny_trace, params)
        sizes = mapping.shard_sizes()
        assert sizes.min() > 0.6 * sizes.mean()
