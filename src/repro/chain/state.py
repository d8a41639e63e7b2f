"""Account state: balances, nonces, and per-shard state stores.

The allocation layer treats shards as transaction counters; this module
gives them actual state so the substrate can *execute* transfers. Each
shard keeps a state store over the accounts ``phi^{-1}(shard)``; epoch
reconfiguration moves account state between stores (the migration
traffic the paper accounts for), and the cross-shard executor
(:mod:`repro.chain.crossshard`) debits and credits across stores.

:class:`DenseShardStateStore` is the one store: per-shard balance and
nonce columns with a first-fit free list. A :class:`SlotDirectory`
shared by all stores of a registry maps each global account id to its
*home* shard and a local column slot, so a shard's columns are sized to
its own population instead of the whole account universe (k-fold less
memory than full-universe columns). Ids beyond the directory capacity
— and the rare account whose state is resident on a shard other than
its home — spill into a fallback dict so sparse stragglers stay
correct.

:class:`StateRegistry` holds one store per shard plus a
:class:`ResidencyIndex` (account -> holding shards, incremental per
mutation) so ``locate`` is O(1). The scalar-dict store and the O(k)
scan ``locate`` it replaced live in ``tests/state_reference.py``, the
oracle the equivalence property suites compare the dense store with.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ChainError, StateMigrationError, ValidationError

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


class ResidencyIndex:
    """Global account -> holding-shards index (per-account bitmasks).

    A ``(capacity, n_words)`` uint64 bitmask matrix — bit ``j`` of word
    ``j // 64`` set when shard ``j``'s store holds the account — plus a
    spill dict (arbitrary-width Python-int masks) for ids beyond the
    capacity. One word covers up to 64 shards; larger ``n_shards``
    simply widen the matrix, so no shard count falls back to the O(k)
    store scan any more. Stores maintain the index incrementally on
    every membership change — execute scatters, settlements, migrations
    — so :meth:`get_shard` answers "which shard holds this account's
    state" in O(words), and :meth:`shards_of` vectorises the lookup for
    batched reconfiguration.

    An account *can* be resident on more than one shard (a relay
    settlement can credit a shard the account has since migrated away
    from); the index then reports the lowest holding shard id — exactly
    what an O(k) scan over the stores in shard order returns, which the
    equivalence property suite pins against the scan oracle (including
    at k = 80, where the old single-int64 layout could not index at
    all).
    """

    __slots__ = ("capacity", "n_shards", "n_words", "_mask", "_extra")

    def __init__(self, capacity: int, n_shards: int = 64) -> None:
        if capacity < 0:
            raise ValidationError(f"capacity must be >= 0, got {capacity}")
        if n_shards < 1:
            raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
        self.capacity = int(capacity)
        self.n_shards = int(n_shards)
        self.n_words = (self.n_shards + 63) // 64
        self._mask = np.zeros((self.capacity, self.n_words), dtype=np.uint64)
        self._extra: Dict[int, int] = {}

    def add(self, shard: int, account: int) -> None:
        if 0 <= account < self.capacity:
            self._mask[account, shard >> 6] |= np.uint64(1 << (shard & 63))
        else:
            self._extra[account] = self._extra.get(account, 0) | (1 << shard)

    def discard(self, shard: int, account: int) -> None:
        if 0 <= account < self.capacity:
            self._mask[account, shard >> 6] &= np.uint64(
                ~(1 << (shard & 63)) & 0xFFFFFFFFFFFFFFFF
            )
            return
        mask = self._extra.get(account, 0) & ~(1 << shard)
        if mask:
            self._extra[account] = mask
        else:
            self._extra.pop(account, None)

    def add_many(self, shard: int, accounts: np.ndarray) -> None:
        if len(accounts) == 0:
            return
        if int(accounts.min()) >= 0 and int(accounts.max()) < self.capacity:
            # Duplicate ids all OR in the same bit — buffering is safe.
            self._mask[accounts, shard >> 6] |= np.uint64(1 << (shard & 63))
            return
        for account in accounts.tolist():
            self.add(shard, account)

    def discard_many(self, shard: int, accounts: np.ndarray) -> None:
        if len(accounts) == 0:
            return
        if int(accounts.min()) >= 0 and int(accounts.max()) < self.capacity:
            self._mask[accounts, shard >> 6] &= np.uint64(
                ~(1 << (shard & 63)) & 0xFFFFFFFFFFFFFFFF
            )
            return
        for account in accounts.tolist():
            self.discard(shard, account)

    def get_shard(self, account: int) -> Optional[int]:
        """Lowest shard id holding ``account``, or None."""
        if 0 <= account < self.capacity:
            for word_index, word in enumerate(self._mask[account].tolist()):
                if word:
                    return (word_index << 6) + (word & -word).bit_length() - 1
            return None
        mask = self._extra.get(account, 0)
        if mask == 0:
            return None
        return (mask & -mask).bit_length() - 1

    def shards_of(self, accounts: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`get_shard`; ``-1`` marks non-residents."""
        accounts = np.asarray(accounts, dtype=np.int64)
        if len(accounts) == 0:
            return np.zeros(0, dtype=np.int64)
        if int(accounts.min()) >= 0 and int(accounts.max()) < self.capacity:
            masks = self._mask[accounts]  # (n, n_words)
            occupied = masks != 0
            resident = occupied.any(axis=1)
            # First non-empty word per row (0 for non-residents, which
            # the `resident` mask overrides below).
            first_word = np.argmax(occupied, axis=1)
            words = masks[np.arange(len(accounts)), first_word]
            lowest_bit = words & (~words + np.uint64(1))
            # frexp exponents are exact for powers of two (and map the
            # zero mask to exponent 0, i.e. bit -1).
            bits = np.frexp(lowest_bit.astype(np.float64))[1].astype(np.int64) - 1
            shards = (first_word.astype(np.int64) << 6) + bits
            shards[~resident] = -1
            return shards
        return np.array(
            [
                -1 if (shard := self.get_shard(a)) is None else shard
                for a in accounts.tolist()
            ],
            dtype=np.int64,
        )

    def nbytes(self) -> int:
        return int(self._mask.nbytes)


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

    Account ids at or above the directory capacity — and accounts whose
    state is resident here while their *home* columns live on another
    shard (a relay settlement can do that) — spill into a fallback dict
    pair with the scalar-dict semantics.

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
        index: Optional[ResidencyIndex] = None,
    ) -> None:
        if shard_id < 0:
            raise ValidationError(f"shard_id must be >= 0, got {shard_id}")
        if capacity < 0:
            raise ValidationError(f"capacity must be >= 0, got {capacity}")
        self.shard_id = shard_id
        self.capacity = int(capacity)
        self._dir = directory if directory is not None else SlotDirectory(capacity)
        self._index = index
        self._bal = np.zeros(0, dtype=np.float64)
        self._non = np.zeros(0, dtype=np.int64)
        self._used = 0
        self._free: List[int] = []
        self._count = 0
        # Fallback for ids >= capacity and off-home residents.
        self._extra_bal: Dict[int, float] = {}
        self._extra_non: Dict[int, int] = {}
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
        if self._index is not None:
            self._index.add(self.shard_id, account)
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
        if self._index is not None:
            self._index.add_many(self.shard_id, accounts)

    def _free_slot(self, account: int) -> None:
        slot = int(self._dir.slot[account])
        self._bal[slot] = 0.0
        self._non[slot] = 0
        self._free.append(slot)
        self._dir.home[account] = -1
        self._count -= 1
        if self._index is not None:
            self._index.discard(self.shard_id, account)

    def _is_home(self, account: int) -> bool:
        return (
            0 <= account < self.capacity
            and self._dir.home[account] == self.shard_id
        )

    def _can_claim(self, account: int) -> bool:
        """True when ``account`` may take a home slot here: in capacity,
        homed nowhere, and not already spilled into this store's extras
        (promotion would double-count the membership)."""
        return (
            0 <= account < self.capacity
            and self._dir.home[account] == -1
            and account not in self._extra_bal
        )

    def _put_extra(self, account: int, balance: float, nonce: int) -> None:
        if account not in self._extra_bal:
            self._count += 1
            if self._index is not None:
                self._index.add(self.shard_id, account)
        self._extra_bal[account] = balance
        self._extra_non[account] = nonce

    def __len__(self) -> int:
        return self._count

    def __contains__(self, account: int) -> bool:
        return self._is_home(account) or account in self._extra_bal

    def accounts(self) -> Iterator[int]:
        """Resident account ids (unspecified order)."""
        for account in np.flatnonzero(
            self._dir.home == self.shard_id
        ).tolist():
            yield account
        yield from self._extra_bal

    def get(self, account: int) -> AccountState:
        """State of ``account``; a fresh zero state when never seen."""
        if self._is_home(account):
            slot = self._dir.slot[account]
            return AccountState(
                balance=float(self._bal[slot]), nonce=int(self._non[slot])
            )
        balance = self._extra_bal.get(account)
        if balance is None:
            return AccountState()
        return AccountState(balance=balance, nonce=self._extra_non[account])

    def put(self, account: int, state: AccountState) -> None:
        """Install ``state`` for ``account``."""
        if account < 0:
            raise ValidationError(f"account must be >= 0, got {account}")
        if self._is_home(account):
            slot = self._dir.slot[account]
            self._bal[slot] = state.balance
            self._non[slot] = state.nonce
            return
        if self._can_claim(account):
            slot = self._alloc_slot(account)
            self._bal[slot] = state.balance
            self._non[slot] = state.nonce
            return
        self._put_extra(account, state.balance, state.nonce)

    def credit(self, account: int, amount: float) -> AccountState:
        """Add funds (creating the account on first touch)."""
        if amount < 0:
            raise ValidationError(f"credit amount must be >= 0, got {amount}")
        if self._is_home(account):
            slot = self._dir.slot[account]
            balance = float(self._bal[slot]) + amount
            self._bal[slot] = balance
            return AccountState(balance=balance, nonce=int(self._non[slot]))
        if self._can_claim(account):
            slot = self._alloc_slot(account)
            self._bal[slot] = amount
            return AccountState(balance=amount, nonce=0)
        balance = self._extra_bal.get(account, 0.0) + amount
        nonce = self._extra_non.get(account, 0)
        self._put_extra(account, balance, nonce)
        return AccountState(balance=balance, nonce=nonce)

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
        if self._can_claim(account):
            if amount > 0.0:
                raise ChainError(f"insufficient balance: 0.0 < {amount}")
            slot = self._alloc_slot(account)
            self._non[slot] = 1
            return AccountState(balance=0.0, nonce=1)
        balance = self._extra_bal.get(account, 0.0)
        if amount > balance:
            raise ChainError(f"insufficient balance: {balance} < {amount}")
        balance -= amount
        nonce = self._extra_non.get(account, 0) + 1
        self._put_extra(account, balance, nonce)
        return AccountState(balance=balance, nonce=nonce)

    def remove(self, account: int) -> AccountState:
        """Remove and return an account's state (for migration)."""
        if self._is_home(account):
            slot = self._dir.slot[account]
            state = AccountState(
                balance=float(self._bal[slot]), nonce=int(self._non[slot])
            )
            self._free_slot(account)
            return state
        try:
            balance = self._extra_bal.pop(account)
        except KeyError:
            raise ChainError(
                f"account {account} is not resident on shard {self.shard_id}"
            ) from None
        self._count -= 1
        if self._index is not None:
            self._index.discard(self.shard_id, account)
        return AccountState(balance=balance, nonce=self._extra_non.pop(account))

    # -- columnar bulk access (settlement scatter) ------------------------------

    def _fast_bulk_ok(self, accounts: np.ndarray) -> bool:
        """True when the pure-columnar bulk path applies."""
        return not self._extra_bal and (
            len(accounts) == 0
            or (
                int(accounts.min()) >= 0
                and int(accounts.max()) < self.capacity
            )
        )

    def credit_many(self, accounts: np.ndarray, amounts: np.ndarray) -> None:
        """Apply a stream of credits in order (settlement scatter)."""
        if self._fast_bulk_ok(accounts):
            home = self._dir.home[accounts]
            new = home == -1
            if (new | (home == self.shard_id)).all():
                if new.any():
                    self._alloc_slots_bulk(np.unique(accounts[new]))
                # np.add.at applies duplicate indices sequentially,
                # matching the scalar path's in-order accumulation.
                np.add.at(self._bal, self._dir.slot[accounts], amounts)
                return
        for account, amount in zip(accounts.tolist(), amounts.tolist()):
            self.credit(account, float(amount))

    # -- bulk migration (batched reconfiguration hot path) ---------------------

    def take_many(
        self, accounts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Remove ``accounts`` (all resident here); return their state.

        A non-resident account raises :class:`ChainError` before
        anything is removed.
        """
        if self._fast_bulk_ok(accounts) and len(accounts):
            home = self._dir.home[accounts]
            if (home == self.shard_id).all():
                slots = self._dir.slot[accounts]
                balances = self._bal[slots].copy()
                nonces = self._non[slots].copy()
                self._bal[slots] = 0.0
                self._non[slots] = 0
                self._free.extend(slots.tolist())
                self._dir.home[accounts] = -1
                self._count -= len(accounts)
                if self._index is not None:
                    self._index.discard_many(self.shard_id, accounts)
                return balances, nonces
        for account in accounts.tolist():
            if account not in self:
                raise ChainError(
                    f"account {account} is not resident on shard "
                    f"{self.shard_id}"
                )
        n = len(accounts)
        balances = np.empty(n, dtype=np.float64)
        nonces = np.empty(n, dtype=np.int64)
        for i, account in enumerate(accounts.tolist()):
            state = self.remove(account)
            balances[i] = state.balance
            nonces[i] = state.nonce
        return balances, nonces

    def put_many(
        self,
        accounts: np.ndarray,
        balances: np.ndarray,
        nonces: np.ndarray,
    ) -> None:
        """Install state rows in bulk (the columnar twin of ``put``)."""
        if self._fast_bulk_ok(accounts):
            home = self._dir.home[accounts]
            new = home == -1
            if (new | (home == self.shard_id)).all():
                if new.any():
                    self._alloc_slots_bulk(np.unique(accounts[new]))
                slots = self._dir.slot[accounts]
                self._bal[slots] = balances
                self._non[slots] = nonces
                return
        for account, balance, nonce in zip(
            accounts.tolist(), balances.tolist(), nonces.tolist()
        ):
            if self._is_home(account):
                slot = self._dir.slot[account]
                self._bal[slot] = balance
                self._non[slot] = nonce
            elif self._can_claim(account):
                slot = self._alloc_slot(account)
                self._bal[slot] = balance
                self._non[slot] = nonce
            else:
                self._put_extra(account, balance, int(nonce))

    def total_balance(self) -> float:
        """Sum of resident balances (float64 pairwise ``np.sum``)."""
        dense = float(np.sum(self._bal[: self._used], dtype=np.float64))
        if not self._extra_bal:
            return dense
        return math.fsum([dense, *self._extra_bal.values()])

    def state_root(self) -> str:
        """Deterministic digest over the sorted account states."""
        resident = np.flatnonzero(self._dir.home == self.shard_id)
        slots = self._dir.slot[resident]
        items = [
            (int(a), float(b), int(n))
            for a, b, n in zip(
                resident.tolist(),
                self._bal[slots].tolist(),
                self._non[slots].tolist(),
            )
        ]
        items.extend(
            (account, balance, self._extra_non[account])
            for account, balance in self._extra_bal.items()
        )
        return _state_root_digest(items)

    def column_nbytes(self) -> int:
        """Bytes held by this store's state columns."""
        return int(self._bal.nbytes + self._non.nbytes)

    def slack_slots(self) -> int:
        """Slots vacated by migration but still held by the columns."""
        return len(self._free)

    def slot_stats(self) -> Dict[str, int]:
        """Column slot telemetry: capacity, free and live slots.

        ``free_slots`` is the free list plus the unallocated tail, so
        fragmentation is measured against the full column capacity.
        Spilled accounts hold no slot and are not counted.
        """
        capacity = len(self._bal)
        live = self._count - len(self._extra_bal)
        return {
            "capacity_slots": capacity,
            "free_slots": capacity - live,
            "live_slots": live,
        }

    def rehomeable_extras(self) -> int:
        """Spill-dict entries that :meth:`compact` could re-home now.

        O(spill size); lets :meth:`StateRegistry.compact_stores`
        trigger a compaction for stranded spill entries even when the
        free list alone would not cross the slack threshold.
        """
        if not self._extra_bal:
            return 0
        return sum(
            1
            for account in self._extra_bal
            if 0 <= account < self.capacity
            and self._dir.home[account] == -1
        )

    def _rehome_extras(self) -> int:
        """Re-slot spilled accounts that may claim a home slot again.

        A relay settlement can credit an account here while its home
        columns live elsewhere; once the other shard removes it, the
        spill entry is the only residency left — in capacity, homed
        nowhere — yet it would stay in the fallback dict forever.
        Compaction re-homes those entries into fresh column slots.
        Ids beyond the directory capacity and genuinely off-home
        residents stay spilled (they have no legal slot here).
        """
        if not self._extra_bal:
            return 0
        eligible = [
            account
            for account in self._extra_bal
            if 0 <= account < self.capacity
            and self._dir.home[account] == -1
        ]
        for account in eligible:
            balance = self._extra_bal.pop(account)
            nonce = self._extra_non.pop(account)
            # _alloc_slot re-adds the membership this spill entry held.
            self._count -= 1
            if self._index is not None:
                self._index.discard(self.shard_id, account)
            slot = self._alloc_slot(account)
            self._bal[slot] = balance
            self._non[slot] = nonce
        return len(eligible)

    def compact(self) -> int:
        """Re-slot resident accounts into fresh right-sized columns.

        Migration churn vacates slots faster than new arrivals reclaim
        them: the free list grows and the columns never shrink. This
        pass rebuilds the columns at the smallest power-of-two capacity
        covering the live population (slot order preserved, so state
        roots and iteration order are untouched), clears the free list
        and rewrites the directory's slots. Eligible spill-dict entries
        are re-homed into fresh slots first (see :meth:`_rehome_extras`).
        Returns the column bytes reclaimed. O(live accounts) — callers
        gate it behind a slack threshold (see
        :meth:`StateRegistry.compact_stores`).
        """
        before = self.column_nbytes()
        self._rehome_extras()
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
    shared :class:`SlotDirectory` sized by ``n_accounts``, with a dict
    fallback for ids beyond that capacity — so size the registry to
    the account universe, or every account spills. A
    :class:`ResidencyIndex` (multi-word bitmasks, so any ``k``) makes
    :meth:`locate` O(1). :meth:`compact_stores` re-slots stores whose
    free slots grew past a slack threshold after heavy migration churn
    and feeds the registry's compaction counters
    (:attr:`compaction_count`, :attr:`compacted_bytes_total`,
    :attr:`compact_moved_bytes_total`).
    """

    def __init__(self, k: int, n_accounts: int = 0) -> None:
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        if n_accounts < 0:
            raise ValidationError(f"n_accounts must be >= 0, got {n_accounts}")
        self.k = k
        self.n_accounts = int(n_accounts)
        self.compaction_count = 0
        self.compacted_bytes_total = 0
        self.compact_moved_bytes_total = 0
        self._index = ResidencyIndex(self.n_accounts, n_shards=k)
        self._directory = SlotDirectory(self.n_accounts)
        self.stores: Tuple[DenseShardStateStore, ...] = tuple(
            DenseShardStateStore(
                shard,
                self.n_accounts,
                directory=self._directory,
                index=self._index,
            )
            for shard in range(k)
        )

    @property
    def residency_index(self) -> ResidencyIndex:
        """The incremental account->shard index (multi-word, any k)."""
        return self._index

    def store_of(self, shard: int) -> DenseShardStateStore:
        if not 0 <= shard < self.k:
            raise ValidationError(f"shard {shard} out of range [0, {self.k})")
        return self.stores[shard]

    def locate(self, account: int) -> Optional[int]:
        """Shard currently holding ``account``'s state, or None (O(1))."""
        return self._index.get_shard(account)

    def locate_many(self, accounts: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`locate`; ``-1`` marks non-residents."""
        return self._index.shards_of(accounts)

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
        residency resolves through the index in one vectorised lookup,
        then state moves grouped per source shard (one bulk take each)
        and per target shard (one bulk put each). Accounts must be
        unique within the batch — the beacon's per-epoch commitment
        rounds guarantee that. Non-resident accounts and accounts
        already on their target are free no-ops, exactly like the
        scalar path.
        """
        accounts = np.asarray(accounts, dtype=np.int64)
        to_shards = np.asarray(to_shards, dtype=np.int64)
        if accounts.shape != to_shards.shape:
            raise ValidationError("accounts/to_shards length mismatch")
        if len(accounts) == 0:
            return 0
        if len(to_shards) and (
            int(to_shards.min()) < 0 or int(to_shards.max()) >= self.k
        ):
            raise ValidationError("target shard out of range in migration batch")
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
            over_threshold = slack and slack > min_slack * max(1, len(store))
            # Stranded spill entries (in capacity, homed nowhere) are
            # re-homed by compact() but never grow the free list, so
            # they qualify a store independently of the slack check.
            if over_threshold or store.rehomeable_extras():
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
        and residency index — the figure the compaction memory test
        compares against the full-universe-columns layout.
        """
        columns = sum(store.column_nbytes() for store in self.stores)
        return int(columns + self._directory.nbytes() + self._index.nbytes())
