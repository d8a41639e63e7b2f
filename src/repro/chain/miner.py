"""Miners and Elastico-style periodic reshuffling.

Permissionless sharding protocols periodically reshuffle miners across
shards so malicious miners cannot camp in one shard (Section II-A). The
reshuffle here is a seeded uniform permutation that keeps committee sizes
balanced, and the pool reports which miners changed shard — those miners
must synchronise the state of their new shard, which is exactly the
synchronisation phase Mosaic piggybacks account migration onto.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ConfigurationError, ValidationError
from repro.util.rng import RngFactory


@dataclass
class Miner:
    """A consensus participant assigned to one shard (or the beacon chain)."""

    miner_id: int
    shard: int

    BEACON = -1  # sentinel shard id for beacon-chain miners

    def __post_init__(self) -> None:
        if self.miner_id < 0:
            raise ValidationError(f"miner_id must be >= 0, got {self.miner_id}")
        if self.shard < Miner.BEACON:
            raise ValidationError(f"invalid shard {self.shard}")


@dataclass
class ReshuffleReport:
    """Summary of one epoch's miner reshuffle."""

    epoch: int
    moved_miners: List[int] = field(default_factory=list)
    assignment: Dict[int, int] = field(default_factory=dict)

    @property
    def moved_count(self) -> int:
        return len(self.moved_miners)


class MinerPool:
    """The miner set ``M`` partitioned into per-shard committees + beacon.

    ``miners_per_shard`` miners serve each of the ``k`` shards and one
    additional committee of the same size serves the beacon chain,
    mirroring the paper's assumption that the beacon chain runs the same
    consensus as a shard.
    """

    def __init__(
        self,
        k: int,
        miners_per_shard: int,
        rng_factory: RngFactory,
    ) -> None:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if miners_per_shard < 1:
            raise ConfigurationError(
                f"miners_per_shard must be >= 1, got {miners_per_shard}"
            )
        self.k = k
        self.miners_per_shard = miners_per_shard
        self._rng_factory = rng_factory
        total = (k + 1) * miners_per_shard
        # Columnar assignment: shard per miner id. The slot grid maps
        # slot -> shard with the beacon committee (k) remapped to -1;
        # Miner objects are materialised lazily for the object API.
        self._shards = self._slot_shards(np.arange(total))

    def _slot_shards(self, slots: np.ndarray) -> np.ndarray:
        shards = slots // self.miners_per_shard
        return np.where(shards == self.k, Miner.BEACON, shards)

    def __len__(self) -> int:
        return len(self._shards)

    @property
    def miners(self) -> Sequence[Miner]:
        """Read-only object view of all miners (materialised lazily)."""
        return tuple(
            Miner(miner_id=miner_id, shard=shard)
            for miner_id, shard in enumerate(self._shards.tolist())
        )

    def committee(self, shard: int) -> List[Miner]:
        """Miners currently assigned to ``shard`` (or ``Miner.BEACON``)."""
        return [
            Miner(miner_id=int(miner_id), shard=shard)
            for miner_id in np.flatnonzero(self._shards == shard)
        ]

    def reshuffle(self, epoch: int) -> ReshuffleReport:
        """Randomly permute miners across shards, keeping sizes balanced.

        The permutation is derived from the pool's RNG factory and the
        epoch index, so every miner computes the same assignment locally
        (the paper's protocols derive this from a shared randomness
        beacon). The reshuffle itself is columnar: one permutation, one
        scatter, one comparison for the moved set.
        """
        rng = self._rng_factory.generator(f"miner-reshuffle-{epoch}")
        order = rng.permutation(len(self._shards))
        slot_shards = self._slot_shards(np.arange(len(self._shards)))
        new_shards = self._shards.copy()
        new_shards[order] = slot_shards
        moved_slots = self._shards[order] != slot_shards
        moved = order[moved_slots]
        self._shards = new_shards
        return ReshuffleReport(
            epoch=epoch,
            moved_miners=[int(m) for m in moved],
            assignment=dict(
                zip(order.tolist(), slot_shards.tolist())
            ),
        )
