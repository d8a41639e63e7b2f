"""The client (wallet) abstraction.

A Mosaic client stores only the transactions that involve its own
account — "a common feature of existing wallets" (Table VI footnote) —
plus whatever future transactions it expects. From that local data and a
downloaded workload snapshot it runs Pilot and, when beneficial, emits a
migration request.

Table IV's per-run input size (the client's ``T_nu`` plus the ``k``
floats of ``Omega``) is measured by the allocator
(``MosaicAllocator._mean_pilot_input_bytes``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.chain.mapping import ShardMapping
from repro.chain.migration import MigrationRequest
from repro.chain.transaction import Transaction, TransactionBatch
from repro.core.pilot import Pilot, PilotDecision
from repro.errors import ValidationError
from repro.workload.observer import WorkloadSnapshot


class Client:
    """One client controlling one account (the paper's ``nu``)."""

    def __init__(self, account: int, eta: float, beta: float = 0.0) -> None:
        if account < 0:
            raise ValidationError(f"account must be >= 0, got {account}")
        self.account = account
        self.pilot = Pilot(eta=eta, beta=beta)
        self._history: List[Transaction] = []
        self._expected: List[Transaction] = []

    # -- local transaction store -------------------------------------------------

    @property
    def history(self) -> TransactionBatch:
        """The client's committed transactions ``T_h^nu``."""
        return TransactionBatch.from_transactions(self._history)

    @property
    def expected(self) -> TransactionBatch:
        """The client's expected future transactions ``T_e^nu``."""
        return TransactionBatch.from_transactions(self._expected)

    def observe_committed(self, transaction: Transaction) -> None:
        """Record a committed transaction involving this account."""
        if not transaction.involves(self.account):
            raise ValidationError(
                f"transaction {transaction!r} does not involve account "
                f"{self.account}"
            )
        self._history.append(transaction)

    def observe_committed_batch(self, batch: TransactionBatch) -> int:
        """Record all transactions in ``batch`` involving this account."""
        own = batch.involving(self.account)
        for tx in own:
            self._history.append(tx)
        return len(own)

    def expect(self, transaction: Transaction) -> None:
        """Record an expected future transaction (daily routine, plans)."""
        if not transaction.involves(self.account):
            raise ValidationError(
                f"expected transaction {transaction!r} does not involve "
                f"account {self.account}"
            )
        self._expected.append(transaction)

    # -- decision making ---------------------------------------------------------

    def run_pilot(
        self, snapshot: WorkloadSnapshot, mapping: ShardMapping
    ) -> PilotDecision:
        """Run Pilot on the local store and a downloaded snapshot."""
        return self.pilot.decide(
            account=self.account,
            history=self.history,
            expected=self.expected,
            omega=snapshot.omega,
            mapping=mapping,
        )

    def propose_migration(
        self,
        snapshot: WorkloadSnapshot,
        mapping: ShardMapping,
        epoch: int = 0,
        fee: float = 0.0,
    ) -> Optional[MigrationRequest]:
        """Run Pilot and build a migration request when it pays off."""
        decision = self.run_pilot(snapshot, mapping)
        if not decision.wants_migration:
            return None
        return MigrationRequest(
            account=self.account,
            from_shard=decision.current_shard,
            to_shard=decision.best_shard,
            gain=decision.gain,
            epoch=epoch,
            fee=fee,
        )

    def __repr__(self) -> str:
        return (
            f"Client(account={self.account}, history={len(self._history)}, "
            f"expected={len(self._expected)})"
        )
