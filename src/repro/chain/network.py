"""Storage / communication / computation overhead model (Table VI).

The paper's Section VI compares three frameworks analytically:

====================  =======================  =============================
quantity              graph-based (miner)      Mosaic (miner)
====================  =======================  =============================
replication storage   ``|T|``                  ``|T|/k + |MR|``
replication comm.     ``|T_window|``           ``|T_window|/k + |MR_window|``
computation input     ``O(|T|)``               ``O(|T_nu|) ~ 2|T|/|A|``
====================  =======================  =============================

with hash-based miners storing/communicating ``|T|/k`` / ``|T_window|/k``
and computing over only the new-transaction window. ``OverheadModel``
turns those formulas into concrete byte counts for a measured trace so
the Table VI / Fig. 1 benches can print real numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.chain.transaction import TX_RECORD_BYTES
from repro.errors import ConfigurationError

#: Bytes charged per migration request stored on the beacon chain
#: (account address 20 B + two shard ids + gain + epoch + signature ~ 97 B).
MR_RECORD_BYTES = 97

#: Bytes per entry of the workload vector Omega a client downloads.
OMEGA_ENTRY_BYTES = 8

FRAMEWORK_GRAPH = "graph-based"
FRAMEWORK_MOSAIC = "mosaic"
FRAMEWORK_HASH = "hash-based"

FRAMEWORKS = (FRAMEWORK_GRAPH, FRAMEWORK_MOSAIC, FRAMEWORK_HASH)


@dataclass(frozen=True)
class OverheadEstimate:
    """Concrete per-participant overheads for one framework."""

    framework: str
    storage_bytes: float
    communication_bytes: float
    computation_input_bytes: float


class OverheadModel:
    """Evaluates the Table VI formulas for a concrete trace.

    Args:
        total_transactions: ``|T|``, all transactions ever committed.
        total_accounts: ``|A|``, all accounts.
        k: number of shards.
        window_transactions: ``|T_window|``, transactions in the recent
            synchronisation window (one epoch, ``tau`` blocks).
        committed_migrations: ``|MR|``, migration requests ever committed.
        window_migrations: ``|MR_window|``, MRs committed in the window.
    """

    def __init__(
        self,
        total_transactions: int,
        total_accounts: int,
        k: int,
        window_transactions: int,
        committed_migrations: int = 0,
        window_migrations: int = 0,
    ) -> None:
        for name, value in (
            ("total_transactions", total_transactions),
            ("total_accounts", total_accounts),
            ("window_transactions", window_transactions),
            ("committed_migrations", committed_migrations),
            ("window_migrations", window_migrations),
        ):
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        if total_accounts == 0:
            raise ConfigurationError("total_accounts must be >= 1")
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.total_transactions = total_transactions
        self.total_accounts = total_accounts
        self.k = k
        self.window_transactions = window_transactions
        self.committed_migrations = committed_migrations
        self.window_migrations = window_migrations

    # -- per-framework estimates ------------------------------------------------

    def graph_based(self) -> OverheadEstimate:
        """Miner overhead under graph-based (Metis/TxAllo-style) allocation."""
        ledger = self.total_transactions * TX_RECORD_BYTES
        window = self.window_transactions * TX_RECORD_BYTES
        return OverheadEstimate(
            framework=FRAMEWORK_GRAPH,
            storage_bytes=ledger,
            communication_bytes=window,
            computation_input_bytes=ledger,
        )

    def mosaic(self) -> OverheadEstimate:
        """Miner overhead under Mosaic (clients run the allocator)."""
        shard_share = self.total_transactions * TX_RECORD_BYTES / self.k
        mr_storage = self.committed_migrations * MR_RECORD_BYTES
        window_share = self.window_transactions * TX_RECORD_BYTES / self.k
        mr_window = self.window_migrations * MR_RECORD_BYTES
        return OverheadEstimate(
            framework=FRAMEWORK_MOSAIC,
            storage_bytes=shard_share + mr_storage,
            communication_bytes=window_share + mr_window,
            computation_input_bytes=self.client_input_bytes(),
        )

    def hash_based(self) -> OverheadEstimate:
        """Miner overhead under hash-based static allocation."""
        shard_share = self.total_transactions * TX_RECORD_BYTES / self.k
        window_share = self.window_transactions * TX_RECORD_BYTES / self.k
        return OverheadEstimate(
            framework=FRAMEWORK_HASH,
            storage_bytes=shard_share,
            communication_bytes=window_share,
            computation_input_bytes=self.window_transactions * TX_RECORD_BYTES,
        )

    def all_frameworks(self) -> Dict[str, OverheadEstimate]:
        """Estimates for all three frameworks, keyed by framework name."""
        return {
            FRAMEWORK_GRAPH: self.graph_based(),
            FRAMEWORK_MOSAIC: self.mosaic(),
            FRAMEWORK_HASH: self.hash_based(),
        }

    # -- client-side quantities ---------------------------------------------------

    def average_client_transactions(self) -> float:
        """``|T_nu|`` on average: every tx touches two accounts -> 2|T|/|A|."""
        return 2.0 * self.total_transactions / self.total_accounts

    def client_input_bytes(self) -> float:
        """Average bytes a Mosaic client feeds Pilot: its T_nu plus Omega."""
        return (
            self.average_client_transactions() * TX_RECORD_BYTES
            + self.k * OMEGA_ENTRY_BYTES
        )
