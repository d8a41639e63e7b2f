"""The public workload oracle clients download ``Omega`` from.

In a deployment this is an Etherscan-style platform analysing the
mempool of pending transactions and publishing one number per shard
(Section III-C-2). Clients download just ``k`` floats — the negligible
communication the paper credits Mosaic with.

In the simulation, as in the paper's evaluation, the oracle analyses the
transactions of the upcoming epoch ("it is from analyzing transactions
in the next epoch in this simulation").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chain.mapping import ShardMapping
from repro.chain.transaction import TransactionBatch
from repro.errors import ValidationError
from repro.sim.metrics import shard_workloads


@dataclass(frozen=True)
class WorkloadSnapshot:
    """One published workload distribution ``Omega``."""

    epoch: int
    omega: np.ndarray

    def __post_init__(self) -> None:
        omega = np.asarray(self.omega, dtype=np.float64)
        if omega.ndim != 1:
            raise ValidationError("omega must be a 1-D vector")
        if not np.isfinite(omega).all():
            raise ValidationError("workloads must be finite")
        if len(omega) and omega.min() < 0:
            raise ValidationError("workloads must be >= 0")
        object.__setattr__(self, "omega", omega)

    @property
    def k(self) -> int:
        """Number of shards covered by the snapshot."""
        return len(self.omega)

class WorkloadOracle:
    """Analyses pending transactions and publishes ``Omega`` snapshots."""

    def __init__(self, eta: float) -> None:
        if eta < 1:
            raise ValidationError(f"eta must be >= 1, got {eta}")
        self.eta = eta
        self._latest: WorkloadSnapshot | None = None

    @property
    def latest(self) -> WorkloadSnapshot | None:
        """The most recently published snapshot, if any."""
        return self._latest

    def publish(
        self,
        epoch: int,
        pending: TransactionBatch,
        mapping: ShardMapping,
    ) -> WorkloadSnapshot:
        """Analyse ``pending`` under ``mapping`` and publish a snapshot.

        ``omega_i = |T_i^I| + eta * |T_i^C|`` over the pending set, the
        same workload definition the metrics use (Section V-A).
        """
        omega = shard_workloads(pending, mapping, self.eta)
        snapshot = WorkloadSnapshot(epoch=epoch, omega=omega)
        self._latest = snapshot
        return snapshot
