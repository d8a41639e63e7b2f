"""Account state: balances, nonces, and per-shard state stores.

The allocation layer treats shards as transaction counters; this module
gives them actual state so the substrate can *execute* transfers. Each
shard keeps a state store over the accounts ``phi^{-1}(shard)``; epoch
reconfiguration moves account state between shards (the migration
traffic the paper accounts for), and the cross-shard executor
(:mod:`repro.chain.crossshard`) debits and credits across stores.

:class:`StateRegistry` holds one table over the account universe
``[0, n_accounts)``: ``balance`` (float64), ``nonce`` (int64) and
``home`` (int32), 20 bytes per account whatever ``k`` is. Single
residency is the contract: like ``phi`` (Definition 1), ``home[a]``
names the one shard holding account ``a`` (``-1`` while no shard does,
and such a row reads 0/0). A shard's store,
:class:`DenseShardStateStore`, is a view over the rows homed on it.
Only the home store may write an account; a write to any other shard
raises :class:`~repro.errors.ResidencyError`, an id outside the
universe raises :class:`~repro.errors.UnknownAccountError`, and an
account homed nowhere becomes homed on the shard that first writes it.

A migration rewrites ``home`` and is charged ``STATE_RECORD_BYTES`` per
moved account: it rides the reconfiguration's state sync (Section
III-B-2), and no row moves, because nothing can observe where a row is
stored (``state_root`` sorts by account id). The scalar-dict stores and
the O(k) scan ``locate`` live in ``tests/state_reference.py``, the
oracle the equivalence property suites compare the table with.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
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


def _state_root_digest(items: List[Tuple[int, float, int]]) -> str:
    """Digest over ``(account, balance, nonce)`` rows sorted by account.

    The test oracle's dict store hashes through it too, so a dict store
    and a store view holding the same state hash to the same root.
    """
    hasher = hashlib.sha256()
    for account, balance, nonce in sorted(items):
        hasher.update(f"{account}:{balance!r}:{nonce}".encode("utf-8"))
        hasher.update(b"\x00")
    return "0x" + hasher.hexdigest()


def _exact_sum(values: np.ndarray) -> float:
    """``math.fsum(values)``, the exactly-rounded sum, in vector passes.

    Each round splits every value at one power-of-two ``sigma`` above
    twice ``len(values)`` times the largest magnitude: the high parts
    are multiples of ``2**-52 * sigma`` whose partial sums stay within
    ``sigma``, so they add exactly in any order, and the low parts go on
    to the next round (the ExtractVector step of Rump, Ogita and
    Oishi's AccSum). ``math.fsum`` of the round sums rounds once.
    Integer values below ``2**50 / len(values)`` take one round.
    """
    sums = []
    top = max(float(values.max(initial=0.0)), -float(values.min(initial=0.0)))
    while 0.0 < top < math.inf:
        sigma = math.ldexp(
            1.0, math.frexp(top)[1] + len(values).bit_length() + 1
        )
        high = values + sigma
        high -= sigma
        sums.append(float(high.sum()))
        values = np.subtract(values, high, out=high)
        top = max(float(values.max()), -float(values.min()))
    if top:  # an inf or nan: IEEE semantics, no exact total to round
        return float(np.sum(values))
    return math.fsum(sums)


def _check_finite(name: str, values: np.ndarray) -> None:
    """Raise unless every entry is finite: a NaN or an infinity would
    make every later balance total, and so every conservation check,
    meaningless."""
    if not np.isfinite(values).all():
        raise ValidationError(f"{name} must be finite")


class DenseShardStateStore:
    """One shard's view of the registry's table: the rows homed on it.

    Holds no state of its own; ``registry.store_of(shard)`` hands it
    out. Writes (``put``, ``credit``, ``debit``, ``credit_many``,
    ``apply_many``) honour the single-residency contract of the module
    docstring: an account homed on another shard raises
    :class:`~repro.errors.ResidencyError`, an id outside the universe
    :class:`~repro.errors.UnknownAccountError`, and a bulk write checks
    every row before it writes any. A write homes an account homed
    nowhere here. Reads treat both error cases as non-resident.

    Observable behaviour — balances, nonces, membership, state roots,
    error cases — is identical to the scalar-dict store kept as the
    oracle in ``tests/state_reference.py``; the equivalence property
    suite asserts it.
    """

    def __init__(self, registry: "StateRegistry", shard_id: int) -> None:
        self.shard_id = shard_id
        self.capacity = registry.n_accounts
        self._balance = registry._balance
        self._nonce = registry._nonce
        self._home = registry._home

    def _is_home(self, account: int) -> bool:
        return (
            0 <= account < self.capacity
            and self._home[account] == self.shard_id
        )

    def _check_writable(self, account: int) -> None:
        """Raise unless ``account`` is homed here or nowhere."""
        if not 0 <= account < self.capacity:
            raise UnknownAccountError(account)
        home = int(self._home[account])
        if home != self.shard_id and home != -1:
            raise ResidencyError(account, home, self.shard_id)

    def _check_writable_many(self, accounts: np.ndarray) -> None:
        """The bulk twin of :meth:`_check_writable`: raises for the first
        unknown id, else for the first id homed on another shard."""
        if len(accounts) and (
            int(accounts.min()) < 0 or int(accounts.max()) >= self.capacity
        ):
            unknown = (accounts < 0) | (accounts >= self.capacity)
            raise UnknownAccountError(int(accounts[np.argmax(unknown)]))
        home = self._home[accounts]
        stray = (home != self.shard_id) & (home != -1)
        if stray.any():
            i = int(np.argmax(stray))
            raise ResidencyError(int(accounts[i]), int(home[i]), self.shard_id)

    def __len__(self) -> int:
        return int(np.count_nonzero(self._home == self.shard_id))

    def __contains__(self, account: int) -> bool:
        return self._is_home(account)

    def accounts(self) -> Iterator[int]:
        """Resident account ids (ascending)."""
        return iter(np.flatnonzero(self._home == self.shard_id).tolist())

    def get(self, account: int) -> AccountState:
        """State of ``account``; a fresh zero state when not resident."""
        if not self._is_home(account):
            return AccountState()
        return AccountState(
            balance=float(self._balance[account]),
            nonce=int(self._nonce[account]),
        )

    def put(self, account: int, state: AccountState) -> None:
        """Install ``state`` for ``account``."""
        self._check_writable(account)
        self._balance[account] = state.balance
        self._nonce[account] = state.nonce
        self._home[account] = self.shard_id

    def credit(self, account: int, amount: float) -> AccountState:
        """Add funds (creating the account on first touch)."""
        if not 0 <= amount < math.inf:
            raise ValidationError(
                f"credit amount must be finite and >= 0, got {amount}"
            )
        self._check_writable(account)
        balance = float(self._balance[account]) + amount
        self._balance[account] = balance
        self._home[account] = self.shard_id
        return AccountState(balance=balance, nonce=int(self._nonce[account]))

    def debit(self, account: int, amount: float) -> AccountState:
        """Remove funds; raises :class:`ChainError` when underfunded."""
        if not 0 <= amount < math.inf:
            raise ValidationError(
                f"debit amount must be finite and >= 0, got {amount}"
            )
        self._check_writable(account)
        balance = float(self._balance[account])
        if amount > balance:
            raise ChainError(f"insufficient balance: {balance} < {amount}")
        balance -= amount
        nonce = int(self._nonce[account]) + 1
        self._balance[account] = balance
        self._nonce[account] = nonce
        self._home[account] = self.shard_id
        return AccountState(balance=balance, nonce=nonce)

    def remove(self, account: int) -> AccountState:
        """Remove and return an account's state; it is then homed nowhere."""
        if not self._is_home(account):
            raise ChainError(
                f"account {account} is not resident on shard {self.shard_id}"
            )
        state = self.get(account)
        self._balance[account] = 0.0
        self._nonce[account] = 0
        self._home[account] = -1
        return state

    # -- columnar bulk access (settlement scatter) ------------------------------

    def credit_many(self, accounts: np.ndarray, amounts: np.ndarray) -> None:
        """Apply a stream of credits in order (settlement scatter)."""
        _check_finite("credit amounts", amounts)
        self._check_writable_many(accounts)
        self._home[accounts] = self.shard_id
        # np.add.at applies duplicate indices sequentially, matching the
        # scalar path's in-order accumulation.
        np.add.at(self._balance, accounts, amounts)

    def balances_many(self, accounts: np.ndarray) -> np.ndarray:
        """Balances of ``accounts`` (0.0 where not resident here)."""
        return np.where(
            self._home[accounts] == self.shard_id, self._balance[accounts], 0.0
        )

    def apply_many(
        self, accounts: np.ndarray, deltas: np.ndarray, debited: np.ndarray
    ) -> None:
        """Apply signed balance deltas in order; bump each debit's nonce.

        The executor's end-of-epoch commit: ``deltas`` are credits
        (>= 0) and debits (< 0) in event order, from senders the
        executor proved cannot overdraw, and ``debited`` names the
        sender of each debit. Accounts homed nowhere become homed here,
        as with :meth:`credit_many`.
        """
        _check_finite("balance deltas", deltas)
        self._check_writable_many(accounts)
        self._home[accounts] = self.shard_id
        np.add.at(self._balance, accounts, deltas)
        np.add.at(self._nonce, debited, 1)

    def total_balance(self) -> float:
        """Exactly-rounded sum of resident balances."""
        return _exact_sum(self._balance[self._home == self.shard_id])

    def state_root(self) -> str:
        """Deterministic digest over the sorted account states."""
        resident = np.flatnonzero(self._home == self.shard_id)
        return _state_root_digest(
            list(
                zip(
                    resident.tolist(),
                    self._balance[resident].tolist(),
                    self._nonce[resident].tolist(),
                )
            )
        )


class StateRegistry:
    """The account-state table and one store view per shard.

    Rows for ids ``[0, n_accounts)`` — size it to the account universe;
    any other id is unknown to every store. ``home`` is the single
    record of where an account lives, so :meth:`locate` is one read and
    a migration one write.
    """

    #: Bytes rewritten by compaction, which the table never needs. Read
    #: by the frozen ``benchmarks/e2e`` harness; goes in harness
    #: revision part 2.
    compact_moved_bytes_total = 0

    def __init__(self, k: int, n_accounts: int) -> None:
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        if n_accounts < 0:
            raise ValidationError(f"n_accounts must be >= 0, got {n_accounts}")
        self.k = k
        self.n_accounts = int(n_accounts)
        self._balance = np.zeros(self.n_accounts, dtype=np.float64)
        self._nonce = np.zeros(self.n_accounts, dtype=np.int64)
        self._home = np.full(self.n_accounts, -1, dtype=np.int32)
        self.stores: Tuple[DenseShardStateStore, ...] = tuple(
            DenseShardStateStore(self, shard) for shard in range(k)
        )

    def store_of(self, shard: int) -> DenseShardStateStore:
        if not 0 <= shard < self.k:
            raise ValidationError(f"shard {shard} out of range [0, {self.k})")
        return self.stores[shard]

    def locate(self, account: int) -> Optional[int]:
        """Home shard of ``account``'s state, or None (O(1))."""
        if 0 <= account < self.n_accounts:
            home = int(self._home[account])
            if home >= 0:
                return home
        return None

    def locate_many(self, accounts: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`locate`; ``-1`` marks non-residents."""
        accounts = np.asarray(accounts, dtype=np.int64)
        known = (accounts >= 0) & (accounts < self.n_accounts)
        shards = np.full(len(accounts), -1, dtype=np.int64)
        shards[known] = self._home[accounts[known]]
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
        self.store_of(from_shard)  # both shard ids must be in range
        self.store_of(to_shard)
        home = self.locate(account)
        if home != from_shard:
            if home is not None:
                raise StateMigrationError(
                    f"account {account} is resident on shard {home}, "
                    f"not on migration source shard {from_shard}"
                )
            return 0
        self._home[account] = to_shard
        return STATE_RECORD_BYTES

    def migrate_batch(
        self, accounts: np.ndarray, to_shards: np.ndarray
    ) -> int:
        """Move many accounts to their target shards; returns bytes moved.

        The columnar twin of a ``locate`` + :meth:`migrate` loop: one
        read and one write of ``home``. Accounts must be unique within
        the batch — the beacon's per-epoch commitment rounds guarantee
        that — and a repeated account raises :class:`ValidationError`
        before anything changes. Non-resident accounts and accounts
        already on their target are free no-ops, exactly like the scalar
        path.
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
        self._home[accounts[moving]] = to_shards[moving]
        return int(np.count_nonzero(moving)) * STATE_RECORD_BYTES

    def compact_stores(self) -> int:
        """Reclaim nothing (the table has no slack); returns 0.

        The frozen ``benchmarks/e2e`` tracer wraps this name; goes in
        harness revision part 2.
        """
        return 0

    def total_balance(self) -> float:
        """System-wide balance — invariant under execution + migration.

        Exactly rounded (``math.fsum`` of every balance), so
        conservation checks stay tight at millions of accounts and the
        total does not depend on which shard holds which balance. Rows
        homed nowhere hold 0.0, so this is one pass over the table.
        """
        return _exact_sum(self._balance)

    def state_memory_nbytes(self) -> int:
        """Bytes of the state table: 20 per account.

        Read by the frozen ``benchmarks/e2e`` harness; goes in harness
        revision part 2.
        """
        return int(self._balance.nbytes + self._nonce.nbytes + self._home.nbytes)
