"""Account state: balances, nonces, and per-shard state stores.

The allocation layer treats shards as transaction counters; this module
gives them actual state so the substrate can *execute* transfers. Each
shard keeps a state store over the accounts ``phi^{-1}(shard)``; epoch
reconfiguration moves account state between stores (the migration
traffic the paper accounts for), and the cross-shard executor
(:mod:`repro.chain.crossshard`) debits and credits across stores.

Single residency is the contract: like ``phi`` (Definition 1), the
state layer gives every account at most one *home* shard. A
:class:`SlotDirectory` shared by all stores of a registry records it —
``home[a]`` (``-1`` while no shard holds ``a``) and the local column
slot. Only the home store may write an account; a write to any other
shard raises :class:`~repro.errors.ResidencyError`, an id outside the
directory raises :class:`~repro.errors.UnknownAccountError`, and an
account homed nowhere claims a slot on the shard that first writes it.
State changes home only by migration (``remove``/``put``,
``take_many``/``put_many``).

:class:`DenseShardStateStore` is the one store: per-shard balance and
nonce columns with a first-fit free list, sized to the shard's own
population instead of the whole account universe (k-fold less memory
than full-universe columns). :class:`StateRegistry` holds one store
per shard; its ``locate`` is a read of ``home``. The scalar-dict store
and the O(k) scan ``locate`` live in ``tests/state_reference.py``, the
oracle the equivalence property suites compare the dense store with.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import (
    ChainError,
    ResidencyError,
    StateMigrationError,
    UnknownAccountError,
    ValidationError,
)

#: Serialised size of one account state record (address, balance, nonce,
#: storage-root digest) — the bytes charged per migrated account.
STATE_RECORD_BYTES = 128

@dataclass(frozen=True)
class AccountState:
    """Balance-and-nonce state of one account."""

    balance: float = 0.0
    nonce: int = 0

    def __post_init__(self) -> None:
        if self.balance < 0:
            raise ValidationError(f"balance must be >= 0, got {self.balance}")
        if self.nonce < 0:
            raise ValidationError(f"nonce must be >= 0, got {self.nonce}")

    def credited(self, amount: float) -> "AccountState":
        """A copy with ``amount`` added to the balance."""
        if amount < 0:
            raise ValidationError(f"credit amount must be >= 0, got {amount}")
        return replace(self, balance=self.balance + amount)

    def debited(self, amount: float) -> "AccountState":
        """A copy with ``amount`` removed and the nonce bumped.

        Raises :class:`ChainError` when the balance cannot cover it.
        """
        if amount < 0:
            raise ValidationError(f"debit amount must be >= 0, got {amount}")
        if amount > self.balance:
            raise ChainError(
                f"insufficient balance: {self.balance} < {amount}"
            )
        return replace(self, balance=self.balance - amount, nonce=self.nonce + 1)


def _state_root_digest(items: List[Tuple[int, float, int]]) -> str:
    """Digest over ``(account, balance, nonce)`` rows sorted by account.

    The test oracle's dict store hashes through it too, so a dict store
    and a dense store holding the same state hash to the same root.
    """
    hasher = hashlib.sha256()
    for account, balance, nonce in sorted(items):
        hasher.update(f"{account}:{balance!r}:{nonce}".encode("utf-8"))
        hasher.update(b"\x00")
    return "0x" + hasher.hexdigest()


class SlotDirectory:
    """Shared global-id -> (home shard, local slot) directory.

    One directory serves every dense store of a registry: ``home[a]``
    is the shard whose columns hold account ``a`` (-1 = no columns
    anywhere), ``slot[a]`` the position inside that shard's columns.
    Storing the directory once — instead of full-universe columns per
    shard — is what cuts the store's memory k-fold.
    """

    __slots__ = ("capacity", "home", "slot")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValidationError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self.home = np.full(self.capacity, -1, dtype=np.int32)
        self.slot = np.zeros(self.capacity, dtype=np.int64)

    def nbytes(self) -> int:
        return int(self.home.nbytes + self.slot.nbytes)




class DenseShardStateStore:
    """The shard state store: compacted per-shard state columns.

    Balances and nonces live in numpy columns sized to this shard's own
    population; the shared :class:`SlotDirectory` translates global
    account ids to local column slots (``home[a] == shard_id`` marks
    membership). Columns grow by doubling as accounts arrive; slots
    vacated by migration are recycled through a free list. The bulk
    entry points — settlement's ``credit_many`` and migration's
    ``take_many``/``put_many`` — stay single fancy-indexing operations
    (one extra slot indirection versus full-universe columns), which is
    what lets the executor scale past 1M accounts without allocating
    ``k x n_accounts`` cells.

    Writes (``put``, ``credit``, ``debit``, ``credit_many``,
    ``put_many``) honour the single-residency contract of the module
    docstring: an account homed on another shard raises
    :class:`~repro.errors.ResidencyError`, an id outside the directory
    :class:`~repro.errors.UnknownAccountError`, and a bulk write checks
    every row before it mutates anything. Reads treat both as
    non-resident.

    Observable behaviour — balances, nonces, membership, state roots,
    error cases — is identical to the scalar-dict store kept as the
    oracle in ``tests/state_reference.py``; the equivalence property
    suite asserts it.
    """

    def __init__(
        self,
        shard_id: int,
        capacity: int,
        directory: Optional[SlotDirectory] = None,
    ) -> None:
        if shard_id < 0:
            raise ValidationError(f"shard_id must be >= 0, got {shard_id}")
        if capacity < 0:
            raise ValidationError(f"capacity must be >= 0, got {capacity}")
        self.shard_id = shard_id
        self.capacity = int(capacity)
        self._dir = directory if directory is not None else SlotDirectory(capacity)
        self._bal = np.zeros(0, dtype=np.float64)
        self._non = np.zeros(0, dtype=np.int64)
        self._used = 0
        self._free: List[int] = []
        self._count = 0
        #: Physical bytes rewritten by the most recent :meth:`compact`.
        self.last_compact_moved_bytes = 0

    # -- slot plumbing ----------------------------------------------------------

    def _grow_columns(self, n_slots: int) -> None:
        if n_slots <= len(self._bal):
            return
        new_capacity = max(16, len(self._bal))
        while new_capacity < n_slots:
            new_capacity *= 2
        for name in ("_bal", "_non"):
            column = getattr(self, name)
            grown = np.zeros(new_capacity, dtype=column.dtype)
            grown[: self._used] = column[: self._used]
            setattr(self, name, grown)

    def _alloc_slot(self, account: int) -> int:
        """Claim a zeroed column slot for ``account`` (makes it home)."""
        if self._free:
            slot = self._free.pop()
        else:
            slot = self._used
            self._grow_columns(slot + 1)
            self._used += 1
        self._dir.home[account] = self.shard_id
        self._dir.slot[account] = slot
        self._count += 1
        return slot

    def _alloc_slots_bulk(self, accounts: np.ndarray) -> None:
        """Claim slots for many distinct new accounts at once."""
        n_new = len(accounts)
        if n_new == 0:
            return
        slots = np.empty(n_new, dtype=np.int64)
        n_recycled = min(len(self._free), n_new)
        if n_recycled:
            slots[:n_recycled] = self._free[len(self._free) - n_recycled :]
            del self._free[len(self._free) - n_recycled :]
        n_fresh = n_new - n_recycled
        if n_fresh:
            self._grow_columns(self._used + n_fresh)
            slots[n_recycled:] = np.arange(
                self._used, self._used + n_fresh, dtype=np.int64
            )
            self._used += n_fresh
        self._dir.home[accounts] = self.shard_id
        self._dir.slot[accounts] = slots
        self._count += n_new

    def _free_slot(self, account: int) -> None:
        slot = int(self._dir.slot[account])
        self._bal[slot] = 0.0
        self._non[slot] = 0
        self._free.append(slot)
        self._dir.home[account] = -1
        self._count -= 1

    def _is_home(self, account: int) -> bool:
        return (
            0 <= account < self.capacity
            and self._dir.home[account] == self.shard_id
        )

    def _check_claimable(self, account: int) -> None:
        """Raise unless ``account``, not homed here, is homed nowhere.

        The write paths call it once the home-hit fast path has missed,
        so the hit itself costs no extra work.
        """
        if not 0 <= account < self.capacity:
            raise UnknownAccountError(account)
        home = int(self._dir.home[account])
        if home != -1:
            raise ResidencyError(account, home, self.shard_id)

    def _claimable_mask(self, accounts: np.ndarray) -> np.ndarray:
        """Which of ``accounts`` are homed nowhere (bulk writes claim them).

        The bulk twin of :meth:`_check_claimable`: raises for the first
        unknown id, else for the first id homed on another shard, before
        the caller mutates anything.
        """
        if len(accounts) and (
            int(accounts.min()) < 0 or int(accounts.max()) >= self.capacity
        ):
            unknown = (accounts < 0) | (accounts >= self.capacity)
            raise UnknownAccountError(int(accounts[np.argmax(unknown)]))
        home = self._dir.home[accounts]
        new = home == -1
        if not (new | (home == self.shard_id)).all():
            i = int(np.argmax(~new & (home != self.shard_id)))
            raise ResidencyError(int(accounts[i]), int(home[i]), self.shard_id)
        return new

    def __len__(self) -> int:
        return self._count

    def __contains__(self, account: int) -> bool:
        return self._is_home(account)

    def accounts(self) -> Iterator[int]:
        """Resident account ids (unspecified order)."""
        for account in np.flatnonzero(
            self._dir.home == self.shard_id
        ).tolist():
            yield account

    def get(self, account: int) -> AccountState:
        """State of ``account``; a fresh zero state when not resident."""
        if not self._is_home(account):
            return AccountState()
        slot = self._dir.slot[account]
        return AccountState(
            balance=float(self._bal[slot]), nonce=int(self._non[slot])
        )

    def put(self, account: int, state: AccountState) -> None:
        """Install ``state`` for ``account``."""
        if self._is_home(account):
            slot = self._dir.slot[account]
        else:
            self._check_claimable(account)
            slot = self._alloc_slot(account)
        self._bal[slot] = state.balance
        self._non[slot] = state.nonce

    def credit(self, account: int, amount: float) -> AccountState:
        """Add funds (creating the account on first touch)."""
        if amount < 0:
            raise ValidationError(f"credit amount must be >= 0, got {amount}")
        if self._is_home(account):
            slot = self._dir.slot[account]
            balance = float(self._bal[slot]) + amount
            self._bal[slot] = balance
            return AccountState(balance=balance, nonce=int(self._non[slot]))
        self._check_claimable(account)
        slot = self._alloc_slot(account)
        self._bal[slot] = amount
        return AccountState(balance=amount, nonce=0)

    def debit(self, account: int, amount: float) -> AccountState:
        """Remove funds; raises :class:`ChainError` when underfunded."""
        if amount < 0:
            raise ValidationError(f"debit amount must be >= 0, got {amount}")
        if self._is_home(account):
            slot = self._dir.slot[account]
            balance = float(self._bal[slot])
            if amount > balance:
                raise ChainError(f"insufficient balance: {balance} < {amount}")
            balance -= amount
            nonce = int(self._non[slot]) + 1
            self._bal[slot] = balance
            self._non[slot] = nonce
            return AccountState(balance=balance, nonce=nonce)
        self._check_claimable(account)
        if amount > 0.0:
            raise ChainError(f"insufficient balance: 0.0 < {amount}")
        slot = self._alloc_slot(account)
        self._non[slot] = 1
        return AccountState(balance=0.0, nonce=1)

    def remove(self, account: int) -> AccountState:
        """Remove and return an account's state (for migration)."""
        if not self._is_home(account):
            raise ChainError(
                f"account {account} is not resident on shard {self.shard_id}"
            )
        slot = self._dir.slot[account]
        state = AccountState(
            balance=float(self._bal[slot]), nonce=int(self._non[slot])
        )
        self._free_slot(account)
        return state

    # -- columnar bulk access (settlement scatter) ------------------------------

    def credit_many(self, accounts: np.ndarray, amounts: np.ndarray) -> None:
        """Apply a stream of credits in order (settlement scatter)."""
        new = self._claimable_mask(accounts)
        if new.any():
            self._alloc_slots_bulk(np.unique(accounts[new]))
        # np.add.at applies duplicate indices sequentially, matching the
        # scalar path's in-order accumulation.
        np.add.at(self._bal, self._dir.slot[accounts], amounts)

    def balances_many(self, accounts: np.ndarray) -> np.ndarray:
        """Balances of ``accounts`` (0.0 where not resident here)."""
        home = self._dir.home[accounts] == self.shard_id
        balances = np.zeros(len(accounts), dtype=np.float64)
        balances[home] = self._bal[self._dir.slot[accounts[home]]]
        return balances

    def apply_many(
        self, accounts: np.ndarray, deltas: np.ndarray, debited: np.ndarray
    ) -> None:
        """Apply signed balance deltas in order; bump each debit's nonce.

        The executor's end-of-epoch commit: ``deltas`` are credits
        (>= 0) and debits (< 0) in event order, from senders the
        executor proved cannot overdraw, and ``debited`` names the
        sender of each debit. Accounts homed nowhere claim a slot, as
        with :meth:`credit_many`.
        """
        new = self._claimable_mask(accounts)
        if new.any():
            self._alloc_slots_bulk(np.unique(accounts[new]))
        np.add.at(self._bal, self._dir.slot[accounts], deltas)
        np.add.at(self._non, self._dir.slot[debited], 1)

    # -- bulk migration (batched reconfiguration hot path) ---------------------

    def take_many(
        self, accounts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Remove ``accounts`` (all resident here); return their state.

        A non-resident account raises :class:`ChainError` before
        anything is removed.
        """
        inside = (accounts >= 0) & (accounts < self.capacity)
        resident = inside.copy()
        resident[inside] = self._dir.home[accounts[inside]] == self.shard_id
        if not resident.all():
            missing = int(accounts[np.argmin(resident)])
            raise ChainError(
                f"account {missing} is not resident on shard {self.shard_id}"
            )
        slots = self._dir.slot[accounts]
        balances = self._bal[slots].copy()
        nonces = self._non[slots].copy()
        self._bal[slots] = 0.0
        self._non[slots] = 0
        self._free.extend(slots.tolist())
        self._dir.home[accounts] = -1
        self._count -= len(accounts)
        return balances, nonces

    def put_many(
        self,
        accounts: np.ndarray,
        balances: np.ndarray,
        nonces: np.ndarray,
    ) -> None:
        """Install state rows in bulk (the columnar twin of ``put``)."""
        new = self._claimable_mask(accounts)
        if new.any():
            self._alloc_slots_bulk(np.unique(accounts[new]))
        slots = self._dir.slot[accounts]
        self._bal[slots] = balances
        self._non[slots] = nonces

    def total_balance(self) -> float:
        """Sum of resident balances (float64 pairwise ``np.sum``)."""
        return float(np.sum(self._bal[: self._used], dtype=np.float64))

    def state_root(self) -> str:
        """Deterministic digest over the sorted account states."""
        resident = np.flatnonzero(self._dir.home == self.shard_id)
        slots = self._dir.slot[resident]
        return _state_root_digest(
            [
                (int(a), float(b), int(n))
                for a, b, n in zip(
                    resident.tolist(),
                    self._bal[slots].tolist(),
                    self._non[slots].tolist(),
                )
            ]
        )

    def column_nbytes(self) -> int:
        """Bytes held by this store's state columns."""
        return int(self._bal.nbytes + self._non.nbytes)

    def slack_slots(self) -> int:
        """Slots vacated by migration but still held by the columns."""
        return len(self._free)

    def compact(self) -> int:
        """Re-slot resident accounts into fresh right-sized columns.

        Migration churn vacates slots faster than new arrivals reclaim
        them: the free list grows and the columns never shrink. This
        pass rebuilds the columns at the smallest power-of-two capacity
        covering the live population (slot order preserved, so state
        roots and iteration order are untouched), clears the free list
        and rewrites the directory's slots. Returns the column bytes
        reclaimed. O(live accounts) — callers gate it behind a slack
        threshold (see :meth:`StateRegistry.compact_stores`).
        """
        before = self.column_nbytes()
        resident = np.flatnonzero(self._dir.home == self.shard_id)
        count = len(resident)
        old_slots = None
        if count:
            old_slots = self._dir.slot[resident]
            order = np.argsort(old_slots, kind="stable")
            resident = resident[order]
            old_slots = old_slots[order]
        new_capacity = 0
        if count:
            new_capacity = 16
            while new_capacity < count:
                new_capacity *= 2
        new_bal = np.zeros(new_capacity, dtype=np.float64)
        new_non = np.zeros(new_capacity, dtype=np.int64)
        if count:
            new_bal[:count] = self._bal[old_slots]
            new_non[:count] = self._non[old_slots]
            self._dir.slot[resident] = np.arange(count, dtype=np.int64)
        self._bal = new_bal
        self._non = new_non
        self._used = count
        self._free = []
        # First-fit compaction rewrites every live row (bal + nonce).
        self.last_compact_moved_bytes = count * 16
        return before - self.column_nbytes()


class StateRegistry:
    """All shards' state stores plus migration between them.

    One first-fit :class:`DenseShardStateStore` per shard behind a
    shared :class:`SlotDirectory` with room for ids ``[0, n_accounts)``
    — size it to the account universe; any other id is unknown to every
    store. The directory's ``home`` column is the single record of
    where an account lives, so :meth:`locate` is one read.
    :meth:`compact_stores` re-slots stores whose free slots grew past a
    slack threshold after heavy migration churn and feeds the
    registry's compaction counters (:attr:`compaction_count`,
    :attr:`compacted_bytes_total`, :attr:`compact_moved_bytes_total`).
    """

    def __init__(self, k: int, n_accounts: int) -> None:
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        if n_accounts < 0:
            raise ValidationError(f"n_accounts must be >= 0, got {n_accounts}")
        self.k = k
        self.n_accounts = int(n_accounts)
        self.compaction_count = 0
        self.compacted_bytes_total = 0
        self.compact_moved_bytes_total = 0
        self._directory = SlotDirectory(self.n_accounts)
        self.stores: Tuple[DenseShardStateStore, ...] = tuple(
            DenseShardStateStore(shard, self.n_accounts, directory=self._directory)
            for shard in range(k)
        )

    def store_of(self, shard: int) -> DenseShardStateStore:
        if not 0 <= shard < self.k:
            raise ValidationError(f"shard {shard} out of range [0, {self.k})")
        return self.stores[shard]

    def locate(self, account: int) -> Optional[int]:
        """Home shard of ``account``'s state, or None (O(1))."""
        if 0 <= account < self.n_accounts:
            home = int(self._directory.home[account])
            if home >= 0:
                return home
        return None

    def locate_many(self, accounts: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`locate`; ``-1`` marks non-residents."""
        accounts = np.asarray(accounts, dtype=np.int64)
        known = (accounts >= 0) & (accounts < self.n_accounts)
        shards = np.full(len(accounts), -1, dtype=np.int64)
        shards[known] = self._directory.home[accounts[known]]
        return shards

    def migrate(self, account: int, from_shard: int, to_shard: int) -> int:
        """Move an account's state between shards; returns bytes moved.

        Accounts that were never touched have an implicit zero state, so
        migrating an unknown account is a no-op costing nothing. A
        request whose ``from_shard`` does not hold the account while
        some *other* shard does raises :class:`StateMigrationError` —
        silently dropping it would strand the balance on the wrong
        shard.
        """
        source = self.store_of(from_shard)
        target = self.store_of(to_shard)
        if account not in source:
            actual = self.locate(account)
            if actual is not None:
                raise StateMigrationError(
                    f"account {account} is resident on shard {actual}, "
                    f"not on migration source shard {from_shard}"
                )
            return 0
        target.put(account, source.remove(account))
        return STATE_RECORD_BYTES

    def migrate_batch(
        self, accounts: np.ndarray, to_shards: np.ndarray
    ) -> int:
        """Move many accounts to their target shards; returns bytes moved.

        The columnar twin of a ``locate`` + :meth:`migrate` loop:
        residency resolves in one vectorised read of ``home``, then
        state moves grouped per source shard (one bulk take each) and
        per target shard (one bulk put each). Accounts must be unique
        within the batch — the beacon's per-epoch commitment rounds
        guarantee that — and a repeated account raises
        :class:`ValidationError` before any store changes. Non-resident
        accounts and accounts already on their target are free no-ops,
        exactly like the scalar path.
        """
        accounts = np.asarray(accounts, dtype=np.int64)
        to_shards = np.asarray(to_shards, dtype=np.int64)
        if accounts.shape != to_shards.shape:
            raise ValidationError("accounts/to_shards length mismatch")
        if len(accounts) == 0:
            return 0
        if int(to_shards.min()) < 0 or int(to_shards.max()) >= self.k:
            raise ValidationError("target shard out of range in migration batch")
        ordered = np.sort(accounts)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if len(repeated):
            raise ValidationError(
                f"account {int(repeated[0])} repeats in migration batch"
            )
        current = self.locate_many(accounts)
        moving = (current >= 0) & (current != to_shards)
        if not moving.any():
            return 0
        acc = accounts[moving]
        src = current[moving]
        dst = to_shards[moving]

        order = np.argsort(src, kind="stable")
        acc, src, dst = acc[order], src[order], dst[order]
        balances = np.empty(len(acc), dtype=np.float64)
        nonces = np.empty(len(acc), dtype=np.int64)
        boundaries = np.flatnonzero(np.diff(src) != 0) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [len(acc)]))
        for start, stop in zip(starts.tolist(), stops.tolist()):
            taken = self.store_of(int(src[start])).take_many(acc[start:stop])
            balances[start:stop], nonces[start:stop] = taken

        order = np.argsort(dst, kind="stable")
        acc, dst = acc[order], dst[order]
        balances, nonces = balances[order], nonces[order]
        boundaries = np.flatnonzero(np.diff(dst) != 0) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [len(acc)]))
        for start, stop in zip(starts.tolist(), stops.tolist()):
            self.store_of(int(dst[start])).put_many(
                acc[start:stop],
                balances[start:stop],
                nonces[start:stop],
            )
        return len(acc) * STATE_RECORD_BYTES

    def compact_stores(self, min_slack: float = 0.5) -> int:
        """Compact every store whose vacated slots exceed the threshold.

        A store qualifies when its free list holds more than
        ``min_slack`` times its live population (so a freshly-settled
        store is never rebuilt for a handful of holes). Returns the
        total column bytes reclaimed. Typically driven per epoch by
        :class:`~repro.chain.epoch.EpochReconfigurator` after heavy
        migration churn.
        """
        if min_slack < 0:
            raise ValidationError(f"min_slack must be >= 0, got {min_slack}")
        reclaimed = 0
        for store in self.stores:
            slack = store.slack_slots()
            if slack and slack > min_slack * max(1, len(store)):
                reclaimed += store.compact()
                self.compaction_count += 1
                self.compact_moved_bytes_total += store.last_compact_moved_bytes
        self.compacted_bytes_total += reclaimed
        return reclaimed

    def total_balance(self) -> float:
        """System-wide balance — invariant under execution + migration.

        Exactly-rounded accumulation (``math.fsum`` over per-store
        totals) so conservation checks stay tight at millions of
        accounts.
        """
        return math.fsum(store.total_balance() for store in self.stores)

    def state_memory_nbytes(self) -> int:
        """Bytes held in numpy state structures across the registry.

        Sums the per-shard state columns plus the shared slot directory
        — the figure the compaction memory test compares against the
        full-universe-columns layout.
        """
        columns = sum(store.column_nbytes() for store in self.stores)
        return int(columns + self._directory.nbytes())
