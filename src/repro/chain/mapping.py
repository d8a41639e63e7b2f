"""The account-shard mapping ``phi`` (Definition 1 in the paper).

``ShardMapping`` maps every account id in ``range(n_accounts)`` to a shard
id in ``range(k)``. Because it is stored as one dense numpy array, the
two invariants of Definition 1 hold by construction:

* **Uniqueness** — each account has exactly one shard (one array cell);
* **Completeness** — every account has a shard (no cell is unset; cells
  are initialised before use and `validate()` rejects out-of-range ids).

The mapping additionally supports bulk migration application and
inverse lookups ``phi^{-1}(i)``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import MappingError, UnknownAccountError

UNASSIGNED = -1


class ShardMapping:
    """Dense account-id -> shard-id mapping with Definition-1 invariants."""

    __slots__ = ("_shard_of", "_k")

    def __init__(self, shard_of: np.ndarray, k: int) -> None:
        shard_of = np.asarray(shard_of, dtype=np.int64)
        if shard_of.ndim != 1:
            raise MappingError("shard_of must be a 1-D array")
        if k < 1:
            raise MappingError(f"k must be >= 1, got {k}")
        if len(shard_of) and (shard_of.min() < 0 or shard_of.max() >= k):
            raise MappingError(
                f"shard ids must lie in [0, {k}), got range "
                f"[{shard_of.min()}, {shard_of.max()}]"
            )
        self._shard_of = shard_of
        self._k = int(k)

    # -- constructors ------------------------------------------------------

    @classmethod
    def uniform_random(
        cls, n_accounts: int, k: int, rng: np.random.Generator
    ) -> "ShardMapping":
        """Uniformly random allocation (used to seed tests/baselines)."""
        return cls(rng.integers(0, k, size=n_accounts, dtype=np.int64), k)

    @classmethod
    def constant(cls, n_accounts: int, k: int, shard: int = 0) -> "ShardMapping":
        """All accounts on one shard (degenerate baseline / k=1 model)."""
        if not 0 <= shard < k:
            raise MappingError(f"shard {shard} out of range [0, {k})")
        return cls(np.full(n_accounts, shard, dtype=np.int64), k)

    # -- basic accessors ---------------------------------------------------

    @property
    def k(self) -> int:
        """Number of shards."""
        return self._k

    @property
    def n_accounts(self) -> int:
        """Number of mapped accounts (ids cover ``range(n_accounts)``)."""
        return len(self._shard_of)

    def __len__(self) -> int:
        return len(self._shard_of)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShardMapping):
            return NotImplemented
        return self._k == other._k and np.array_equal(
            self._shard_of, other._shard_of
        )

    def shard_of(self, account_id: int) -> int:
        """Return ``phi(account_id)``."""
        if not 0 <= account_id < len(self._shard_of):
            raise UnknownAccountError(account_id)
        return int(self._shard_of[account_id])

    def shards_of(self, account_ids: np.ndarray) -> np.ndarray:
        """Vectorised ``phi`` lookup for an array of account ids."""
        ids = np.asarray(account_ids, dtype=np.int64)
        self._check_known(ids)
        return self._shard_of[ids]

    def _check_known(self, ids: np.ndarray) -> None:
        """Raise :class:`UnknownAccountError` naming the first id outside
        ``range(n_accounts)``."""
        if len(ids) and (ids.min() < 0 or ids.max() >= len(self._shard_of)):
            unknown = (ids < 0) | (ids >= len(self._shard_of))
            raise UnknownAccountError(int(ids[np.argmax(unknown)]))

    def as_array(self) -> np.ndarray:
        """Read-only view of the underlying assignment array."""
        view = self._shard_of.view()
        view.flags.writeable = False
        return view

    # -- inverse views -----------------------------------------------------

    def shard_sizes(self) -> np.ndarray:
        """Number of accounts per shard, length ``k``."""
        return np.bincount(self._shard_of, minlength=self._k)

    def partition(self) -> List[np.ndarray]:
        """The tuple ``{A_1, ..., A_k}`` as a list of id arrays."""
        order = np.argsort(self._shard_of, kind="stable")
        sizes = self.shard_sizes()
        boundaries = np.cumsum(sizes)[:-1]
        return list(np.split(order, boundaries))

    # -- mutation ----------------------------------------------------------

    def copy(self) -> "ShardMapping":
        """Deep copy (mutating the copy leaves the original untouched)."""
        return ShardMapping(self._shard_of.copy(), self._k)

    def assign(self, account_id: int, shard: int) -> None:
        """Set ``phi(account_id) = shard`` in place."""
        if not 0 <= shard < self._k:
            raise MappingError(f"shard {shard} out of range [0, {self._k})")
        if not 0 <= account_id < len(self._shard_of):
            raise UnknownAccountError(account_id)
        self._shard_of[account_id] = shard

    def assign_many(self, account_ids: np.ndarray, shards: np.ndarray) -> None:
        """Vectorised in-place assignment of several accounts."""
        ids = np.asarray(account_ids, dtype=np.int64)
        new_shards = np.asarray(shards, dtype=np.int64)
        if ids.shape != new_shards.shape:
            raise MappingError("account_ids and shards must have equal shape")
        if len(ids) == 0:
            return
        self._check_known(ids)
        if new_shards.min() < 0 or new_shards.max() >= self._k:
            raise MappingError("shard id out of range in bulk assignment")
        self._shard_of[ids] = new_shards

    # -- validation & diffing ----------------------------------------------

    def validate(self) -> None:
        """Re-check Definition 1; raises :class:`MappingError` on violation."""
        if len(self._shard_of) == 0:
            return
        if self._shard_of.min() < 0 or self._shard_of.max() >= self._k:
            raise MappingError("mapping contains out-of-range shard ids")

    def diff(self, other: "ShardMapping") -> np.ndarray:
        """Account ids whose shard differs between ``self`` and ``other``."""
        if self._k != other._k or len(self) != len(other):
            raise MappingError("cannot diff mappings of different shape")
        return np.flatnonzero(self._shard_of != other._shard_of)

    def __repr__(self) -> str:
        return f"ShardMapping(n_accounts={len(self)}, k={self._k})"
