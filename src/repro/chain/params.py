"""Protocol parameters (Section III-A-2 of the paper).

``ProtocolParams`` bundles the knobs every component of the system shares:

* ``k``      — number of shards.
* ``eta``    — cross-shard difficulty: an intra-shard transaction costs 1
  unit of shard capacity, a cross-shard transaction costs ``eta`` units in
  *each* involved shard (``eta > 1`` reflects the multi-round cross-shard
  consensus).
* ``tau``    — epoch length in beacon-chain blocks; epoch reconfiguration
  (beacon sync + account migration) runs every ``tau`` blocks.
* ``beta``   — the client confidence ratio of known expected future
  transactions used by Pilot's fusion rule (Eq. 2).
* ``capacity_per_epoch`` — ``lambda``: the workload units one shard can
  process per epoch. ``None`` means "derive from the evaluated trace" as
  the paper does (``lambda = |T_epoch| / k``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.util.validation import check_in_range, check_probability, check_positive

DEFAULT_SHARDS = 16
DEFAULT_ETA = 2.0
DEFAULT_TAU = 300


@dataclass(frozen=True)
class ProtocolParams:
    """Immutable bundle of sharding-protocol parameters.

    The defaults mirror the paper's default configuration: ``k = 16``,
    ``eta = 2`` and ``tau = 300`` blocks per epoch (about one hour of
    Ethereum blocks).
    """

    k: int = DEFAULT_SHARDS
    eta: float = DEFAULT_ETA
    tau: int = DEFAULT_TAU
    beta: float = 0.0
    capacity_per_epoch: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise ConfigurationError(f"k must be an int, got {self.k!r}")
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        check_in_range("eta", self.eta, 1.0, float("inf"))
        if not isinstance(self.tau, int) or isinstance(self.tau, bool):
            raise ConfigurationError(f"tau must be an int, got {self.tau!r}")
        if self.tau < 1:
            raise ConfigurationError(f"tau must be >= 1, got {self.tau}")
        check_probability("beta", self.beta)
        if self.capacity_per_epoch is not None:
            check_positive("capacity_per_epoch", self.capacity_per_epoch)
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigurationError(f"seed must be an int, got {self.seed!r}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    def derive_capacity(self, epoch_transaction_count: int) -> float:
        """Return ``lambda`` for an epoch with the given transaction count.

        When ``capacity_per_epoch`` is explicitly configured it wins;
        otherwise the paper's rule ``lambda = |T_epoch| / k`` applies. The
        result is floored at 1 so degenerate empty epochs remain well
        defined.
        """
        if self.capacity_per_epoch is not None:
            return self.capacity_per_epoch
        if epoch_transaction_count < 0:
            raise ConfigurationError(
                f"epoch_transaction_count must be >= 0, got {epoch_transaction_count}"
            )
        return max(1.0, epoch_transaction_count / self.k)
