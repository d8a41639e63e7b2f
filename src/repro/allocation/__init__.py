"""Account-allocation algorithms: baselines and shared infrastructure.

* :mod:`repro.allocation.hash_based` — static hash allocation
  (Chainspace/Monoxide style).
* :mod:`repro.allocation.metis_like` — from-scratch multilevel graph
  partitioner in the spirit of METIS.
* :mod:`repro.allocation.txallo` — re-implementation of TxAllo
  (G-TxAllo full + A-TxAllo incremental).
* :mod:`repro.allocation.graph` — the weighted account-interaction graph
  all graph-based methods consume.
"""

from repro.allocation.base import Allocator, AllocationUpdate, UpdateContext
from repro.allocation.graph import TransactionGraph
from repro.allocation.hash_based import (
    HashAllocator,
    hash_shard_of_address,
)
from repro.allocation.metis_like import MetisLikeAllocator, partition_graph
from repro.allocation.txallo import TxAlloAllocator, g_txallo, a_txallo
from repro.allocation.orbit import OrbitAllocator

__all__ = [
    "Allocator",
    "AllocationUpdate",
    "UpdateContext",
    "TransactionGraph",
    "HashAllocator",
    "hash_shard_of_address",
    "MetisLikeAllocator",
    "partition_graph",
    "TxAlloAllocator",
    "g_txallo",
    "a_txallo",
    "OrbitAllocator",
]
