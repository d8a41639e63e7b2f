"""Hash-based (random) static allocation.

Conventional sharding protocols allocate accounts by hashing their
address: Chainspace uses ``SHA256(address) mod k`` (implemented here);
Monoxide uses the first ``log2(k)`` bits of the hash. Both ignore
transaction patterns, so they achieve near-perfect workload balance
while suffering very high cross-shard ratios (over 90% at k=16 in the
paper's Table I).

The allocation is static: no updates, no migrations, and new accounts are
placed by the same hash rule. Each account is hashed once: placement
reuses the shard ``initialize`` computed for every id it covered.
"""

from __future__ import annotations

import hashlib
import time
from typing import Optional

import numpy as np

from repro.allocation.base import AllocationUpdate, Allocator, UpdateContext
from repro.chain.account import AccountRegistry, address_from_id
from repro.chain.mapping import ShardMapping
from repro.chain.params import ProtocolParams
from repro.data.trace import Trace
from repro.errors import ConfigurationError

#: Bytes of input per allocation decision: the 20-byte address.
ADDRESS_INPUT_BYTES = 20


def hash_shard_of_address(address: str, k: int) -> int:
    """``SHA256(address) mod k`` (Chainspace rule)."""
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    digest = hashlib.sha256(address.lower().encode("utf-8")).digest()
    return int.from_bytes(digest, "big") % k


class HashAllocator(Allocator):
    """Static ``SHA256(address) mod k`` allocation."""

    name = "hash-random"

    def __init__(self, registry: Optional[AccountRegistry] = None) -> None:
        self._registry = registry
        # ``initialize``'s shards and their k: placement reads an id it
        # covers from here instead of hashing the address again. The
        # array is shared with the mapping ``initialize`` returns, which
        # only ever takes these same shards (there are no migrations);
        # a private copy raised the ``hash-lossy`` peak RSS by ~2 MB.
        self._hashed = np.zeros(0, dtype=np.int64)
        self._hashed_k = 0

    def _address_of(self, account_id: int) -> str:
        if self._registry is not None:
            return self._registry.address_of(account_id)
        return address_from_id(account_id)

    def _shard_of(self, account_id: int, k: int) -> int:
        return hash_shard_of_address(self._address_of(account_id), k)

    def initialize(self, history: Trace, params: ProtocolParams) -> ShardMapping:
        assignment = np.fromiter(
            (self._shard_of(a, params.k) for a in range(history.n_accounts)),
            dtype=np.int64,
            count=history.n_accounts,
        )
        self._hashed = assignment
        self._hashed_k = params.k
        return ShardMapping(assignment, params.k)

    def update(
        self, mapping: ShardMapping, context: UpdateContext
    ) -> AllocationUpdate:
        # Static allocation: the only "work" is hashing any new addresses,
        # which place_new_accounts already covered. Time one hash so the
        # efficiency tables have a non-zero, honest unit cost.
        start = time.perf_counter()
        self._shard_of(0, context.params.k)
        elapsed = time.perf_counter() - start
        return AllocationUpdate(
            mapping=mapping,
            execution_time=elapsed,
            unit_time=elapsed,
            input_bytes=ADDRESS_INPUT_BYTES,
            migrations=0,
            proposed_migrations=0,
        )

    def place_new_accounts(
        self,
        new_account_ids: np.ndarray,
        mapping: ShardMapping,
        context: Optional[UpdateContext] = None,
    ) -> np.ndarray:
        # ``_hashed`` is the array of the mapping ``initialize`` returned,
        # so this relies on that mapping never taking a shard other than
        # an id's hash: this allocator proposes no migrations, and the
        # engine assigns a new id the shard placed here.
        # ``test_engine_run_places_by_hash`` pins it over a whole run.
        k = mapping.k
        ids = np.asarray(new_account_ids, dtype=np.int64)
        covered = len(self._hashed) if k == self._hashed_k else 0
        known = (ids >= 0) & (ids < covered)
        placements = np.empty(len(ids), dtype=np.int64)
        placements[known] = self._hashed[ids[known]]
        fresh = ids[~known]
        placements[~known] = np.fromiter(
            (self._shard_of(a, k) for a in fresh.tolist()),
            dtype=np.int64,
            count=len(fresh),
        )
        return placements
