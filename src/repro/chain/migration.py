"""Migration requests: the on-chain record of a client's shard move.

A migration request (``MR`` in the paper) is a beacon-chain transaction
stating "move account ``nu`` from shard ``a`` to shard ``b``". Requests
carry the potential gain the client computed so that, when more requests
are proposed than the beacon chain can commit in one epoch, the ones with
the largest improvement are prioritised (Section V-A, Parameters).

:class:`MigrationRequest` is the one-request view a client builds;
:class:`MigrationRequestBatch` is the columnar form the beacon chain
and the commitment kernel accept (struct-of-arrays, mirroring
``TransactionBatch``). :func:`select_migrations_kernel` is that
kernel: the one commitment rule, called by the beacon chain, Mosaic's
per-epoch cap and the flooding model.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import MigrationError, ValidationError


@dataclass(frozen=True)
class MigrationRequest:
    """An account-migration request destined for the beacon chain.

    Attributes:
        account: integer account id of the migrating account.
        from_shard: shard the account currently resides in.
        to_shard: shard the client wants to move to.
        gain: client-computed improvement in Potential (Eq. 4); used for
            prioritisation when the beacon chain is congested.
        epoch: epoch index in which the request was proposed.
        fee: fee paid to the beacon chain (anti-DoS economics, Section VII-B).
    """

    account: int
    from_shard: int
    to_shard: int
    gain: float = 0.0
    epoch: int = 0
    fee: float = 0.0

    def __post_init__(self) -> None:
        if self.account < 0:
            raise MigrationError(f"account must be >= 0, got {self.account}")
        if self.from_shard < 0 or self.to_shard < 0:
            raise MigrationError("shard ids must be >= 0")
        if self.from_shard == self.to_shard:
            raise MigrationError(
                f"migration must change shards (account {self.account} "
                f"stays on shard {self.from_shard})"
            )
        if self.epoch < 0:
            raise MigrationError(f"epoch must be >= 0, got {self.epoch}")
        if self.fee < 0:
            raise MigrationError(f"fee must be >= 0, got {self.fee}")


class MigrationRequestBatch:
    """Columnar batch of migration requests (struct-of-arrays).

    One epoch of client proposals as parallel arrays; the commitment
    kernel filters and prioritises directly on the arrays.
    :meth:`from_requests` builds a batch from :class:`MigrationRequest`
    objects.
    """

    __slots__ = ("accounts", "from_shards", "to_shards", "gains", "epoch")

    def __init__(
        self,
        accounts: np.ndarray,
        from_shards: np.ndarray,
        to_shards: np.ndarray,
        gains: Optional[np.ndarray] = None,
        epoch: int = 0,
    ) -> None:
        accounts = np.asarray(accounts, dtype=np.int64)
        from_shards = np.asarray(from_shards, dtype=np.int64)
        to_shards = np.asarray(to_shards, dtype=np.int64)
        if gains is None:
            gains = np.zeros(len(accounts), dtype=np.float64)
        else:
            gains = np.asarray(gains, dtype=np.float64)
        for name, array in (
            ("from_shards", from_shards),
            ("to_shards", to_shards),
            ("gains", gains),
        ):
            if array.shape != accounts.shape:
                raise MigrationError(
                    f"{name} must match accounts in shape, got {array.shape}"
                )
        if epoch < 0:
            raise MigrationError(f"epoch must be >= 0, got {epoch}")
        self.accounts = accounts
        self.from_shards = from_shards
        self.to_shards = to_shards
        self.gains = gains
        self.epoch = int(epoch)
        self.validate()

    def validate(self) -> None:
        """Reject malformed rows with the scalar dataclass's messages.

        The batch and object views must be behaviourally identical at
        the edges: a bad row raises the exact typed
        :class:`MigrationError` that constructing the equivalent
        :class:`MigrationRequest` would, reported for the first
        offending row in submission order.
        """
        if len(self.accounts) == 0:
            return
        bad = (
            (self.accounts < 0)
            | (self.from_shards < 0)
            | (self.to_shards < 0)
            | (self.from_shards == self.to_shards)
        )
        if not bad.any():
            return
        row = int(np.flatnonzero(bad)[0])
        account = int(self.accounts[row])
        from_shard = int(self.from_shards[row])
        to_shard = int(self.to_shards[row])
        # Same check order as MigrationRequest.__post_init__.
        if account < 0:
            raise MigrationError(f"account must be >= 0, got {account}")
        if from_shard < 0 or to_shard < 0:
            raise MigrationError("shard ids must be >= 0")
        raise MigrationError(
            f"migration must change shards (account {account} "
            f"stays on shard {from_shard})"
        )

    def __len__(self) -> int:
        return len(self.accounts)

    @classmethod
    def empty(cls, epoch: int = 0) -> "MigrationRequestBatch":
        zero = np.zeros(0, dtype=np.int64)
        return cls(zero, zero.copy(), zero.copy(), epoch=epoch)

    @classmethod
    def from_requests(
        cls, requests: Sequence[MigrationRequest]
    ) -> "MigrationRequestBatch":
        """Build a batch from request objects of one proposal epoch.

        A batch has a single epoch column, so requests from different
        epochs raise :class:`MigrationError` instead of being relabelled.
        """
        if not requests:
            return cls.empty()
        epochs = {r.epoch for r in requests}
        if len(epochs) > 1:
            raise MigrationError(
                f"requests span epochs {sorted(epochs)}; a batch holds one"
            )
        return cls(
            np.array([r.account for r in requests], dtype=np.int64),
            np.array([r.from_shard for r in requests], dtype=np.int64),
            np.array([r.to_shard for r in requests], dtype=np.int64),
            np.array([r.gain for r in requests], dtype=np.float64),
            epoch=requests[0].epoch,
        )

    @classmethod
    def _trusted(
        cls,
        accounts: np.ndarray,
        from_shards: np.ndarray,
        to_shards: np.ndarray,
        gains: np.ndarray,
        epoch: int,
    ) -> "MigrationRequestBatch":
        """Assemble from rows of an already-validated batch.

        Skips the O(n) row sweep — slices and concatenations of valid
        rows stay valid, and the commit hot path builds several views
        of the same million-row round.
        """
        batch = cls.__new__(cls)
        batch.accounts = accounts
        batch.from_shards = from_shards
        batch.to_shards = to_shards
        batch.gains = gains
        batch.epoch = int(epoch)
        return batch

    def take_batch(self, indices: np.ndarray) -> "MigrationRequestBatch":
        """The rows at ``indices`` as a new batch, in index order."""
        idx = np.asarray(indices, dtype=np.int64)
        return MigrationRequestBatch._trusted(
            self.accounts[idx],
            self.from_shards[idx],
            self.to_shards[idx],
            self.gains[idx],
            epoch=self.epoch,
        )

    @classmethod
    def concat(
        cls, batches: Sequence["MigrationRequestBatch"], epoch: int = 0
    ) -> "MigrationRequestBatch":
        """Concatenate ``batches`` row-wise (submission order preserved)."""
        batches = [b for b in batches if len(b)]
        if not batches:
            return cls.empty(epoch=epoch)
        if epoch < 0:
            raise MigrationError(f"epoch must be >= 0, got {epoch}")
        return cls._trusted(
            np.concatenate([b.accounts for b in batches]),
            np.concatenate([b.from_shards for b in batches]),
            np.concatenate([b.to_shards for b in batches]),
            np.concatenate([b.gains for b in batches]),
            epoch=epoch,
        )

    def content_digest(self) -> str:
        """Deterministic digest over the batch's rows.

        Beacon blocks commit to their payload via ``repr``; the digest
        makes a committed batch's block hash bind to every row without
        materialising per-request objects.
        """
        hasher = hashlib.sha256()
        hasher.update(str(self.epoch).encode("utf-8"))
        for column in (
            self.accounts,
            self.from_shards,
            self.to_shards,
            self.gains,
        ):
            hasher.update(np.ascontiguousarray(column).tobytes())
            hasher.update(b"\x00")
        return hasher.hexdigest()

    def __repr__(self) -> str:
        return (
            f"MigrationRequestBatch(n={len(self)}, epoch={self.epoch}, "
            f"digest={self.content_digest()})"
        )


def select_migrations_kernel(
    accounts: np.ndarray,
    from_shards: np.ndarray,
    to_shards: np.ndarray,
    gains: np.ndarray,
    shard_of: Optional[np.ndarray],
    k: Optional[int],
    capacity: Optional[int],
    fifo: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised migration-request accounting for one epoch.

    Implements the beacon-chain commitment policy over columnar request
    arrays (indices refer to positions in the input arrays):

    1. **Stale filter** (only when ``shard_of``/``k`` are given): drop
       requests whose account is outside the mapping, whose target shard
       is out of range, or whose ``from_shard`` no longer matches the
       mapping.
    2. **Dedup** per account — FIFO keeps the first submission, the
       gain-prioritised mode keeps the highest-gain request (earliest
       submission wins gain ties, matching the scalar reference).
    3. **Capacity cap** — FIFO commits in submission order; otherwise
       requests commit by descending gain, ties broken by account id.

    Returns ``(committed_idx, rejected_idx)``. ``committed_idx`` is in
    commitment order; ``rejected_idx`` is in no particular order.
    """
    n = len(accounts)
    if not (len(from_shards) == len(to_shards) == len(gains) == n):
        raise ValidationError("request arrays must have equal length")
    if capacity is not None and capacity < 0:
        raise ValidationError(f"capacity must be >= 0, got {capacity}")
    indices = np.arange(n)
    if n == 0:
        return indices, indices.copy()

    valid = np.ones(n, dtype=bool)
    if shard_of is not None:
        if k is None:
            raise ValidationError("k is required when shard_of is given")
        in_universe = accounts < len(shard_of)
        valid = in_universe & (to_shards < k)
        safe_accounts = np.where(in_universe, accounts, 0)
        valid &= np.where(in_universe, shard_of[safe_accounts] == from_shards, False)
    valid_idx = indices[valid]
    if len(valid_idx) == 0:
        return valid_idx, indices[~valid]

    if fifo:
        # Keep the first submission per account, in submission order.
        _, first_pos = np.unique(accounts[valid_idx], return_index=True)
        keep = valid_idx[np.sort(first_pos)]
    else:
        # Highest gain per account; earliest submission wins exact ties
        # (stable mergesort on (account, -gain) keys).
        sub = valid_idx
        order = np.lexsort((sub, -gains[sub]))
        ranked = sub[order]
        _, first_pos = np.unique(accounts[ranked], return_index=True)
        survivors = ranked[np.sort(first_pos)]
        # Commitment order: descending gain, ties by account id.
        commit_order = np.lexsort((accounts[survivors], -gains[survivors]))
        keep = survivors[commit_order]

    committed = keep[:capacity] if capacity is not None else keep
    committed_mask = np.zeros(n, dtype=bool)
    committed_mask[committed] = True
    # Duplicates, over-capacity and stale entries, in index order.
    return committed, indices[~committed_mask]
