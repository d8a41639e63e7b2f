"""Scalar-dict state stores and scan ``locate`` (a test oracle).

Production keeps all account state in one table,
``repro.chain.state.StateRegistry``: ``balance``, ``nonce`` and
``home`` rows, with each shard's store a view over the rows homed on
it and a migration a rewrite of ``home``. This module keeps the plain
formulation — two dicts per shard, residency found by scanning the
stores in shard order, a migration a take from one dict and a put into
another — so property tests can drive both through the same operations
and compare balances, nonces, membership, state roots, totals,
residency and raised errors after every step. It shares no code with
the registry it checks beyond the state-root digest and
``AccountState``:

* :class:`ShardStateStore` — the dict store, honouring the production
  store's full contract (scalar and bulk entry points, and the
  single-residency write rules: an id outside ``[0, capacity)`` raises
  ``UnknownAccountError``, an account held by a sibling store raises
  ``ResidencyError``, bulk writes check before they mutate), plus the
  bulk ``take_many``/``put_many`` its registry migrates with;
* :func:`dict_registry` — a registry over dict stores with its own
  ``locate`` scan, ``migrate``, grouped ``migrate_batch`` and
  ``math.fsum`` total;
* :func:`locate_scan` — the O(k) scan.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.chain.state import (
    STATE_RECORD_BYTES,
    AccountState,
    StateRegistry,
    _state_root_digest,
)
from repro.errors import (
    ChainError,
    ResidencyError,
    StateMigrationError,
    UnknownAccountError,
    ValidationError,
)

#: Parametrisation ids of the equivalence suites: the oracle and
#: production.
BACKEND_DICT = "dict"
BACKEND_DENSE = "dense"
STATE_BACKENDS = (BACKEND_DICT, BACKEND_DENSE)


class ShardStateStore:
    """The state of all accounts resident on one shard, in two dicts.

    Balances and nonces live in two parallel scalar dicts; ``get``
    materialises an :class:`AccountState` lazily. ``peers`` lists every
    store of the registry (this one included); a write scans it for
    another holder of the account.
    """

    def __init__(
        self,
        shard_id: int,
        capacity: int,
        peers: Sequence["ShardStateStore"] = (),
    ) -> None:
        if shard_id < 0:
            raise ValidationError(f"shard_id must be >= 0, got {shard_id}")
        self.shard_id = shard_id
        self.capacity = capacity
        self._peers = peers
        self._balances: Dict[int, float] = {}
        self._nonces: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._balances)

    def __contains__(self, account: int) -> bool:
        return account in self._balances

    def accounts(self) -> Iterator[int]:
        """Resident account ids (unspecified order)."""
        return iter(self._balances)

    def _check_writable(self, account: int) -> None:
        """Raise unless this store may write ``account``."""
        if not 0 <= account < self.capacity:
            raise UnknownAccountError(account)
        if account in self._balances:
            return
        for peer in self._peers:
            if peer is not self and account in peer:
                raise ResidencyError(account, peer.shard_id, self.shard_id)

    def _check_writable_many(self, accounts: np.ndarray) -> None:
        """Bulk twin: the first unknown id wins, then the first stray."""
        ids = accounts.tolist()
        for account in ids:
            if not 0 <= account < self.capacity:
                raise UnknownAccountError(account)
        for account in ids:
            self._check_writable(account)

    def get(self, account: int) -> AccountState:
        """State of ``account``; a fresh zero state when not resident."""
        balance = self._balances.get(account)
        if balance is None:
            return AccountState()
        return AccountState(balance=balance, nonce=self._nonces[account])

    def put(self, account: int, state: AccountState) -> None:
        """Install ``state`` for ``account``."""
        self._check_writable(account)
        self._balances[account] = state.balance
        self._nonces[account] = state.nonce

    def credit(self, account: int, amount: float) -> AccountState:
        """Add funds (creating the account on first touch)."""
        if not 0 <= amount < math.inf:
            raise ValidationError(
                f"credit amount must be finite and >= 0, got {amount}"
            )
        self._check_writable(account)
        balance = self._balances.get(account, 0.0) + amount
        self._balances[account] = balance
        nonce = self._nonces.setdefault(account, 0)
        return AccountState(balance=balance, nonce=nonce)

    def debit(self, account: int, amount: float) -> AccountState:
        """Remove funds; raises :class:`ChainError` when underfunded."""
        if not 0 <= amount < math.inf:
            raise ValidationError(
                f"debit amount must be finite and >= 0, got {amount}"
            )
        self._check_writable(account)
        balance = self._balances.get(account, 0.0)
        if amount > balance:
            raise ChainError(f"insufficient balance: {balance} < {amount}")
        balance -= amount
        nonce = self._nonces.get(account, 0) + 1
        self._balances[account] = balance
        self._nonces[account] = nonce
        return AccountState(balance=balance, nonce=nonce)

    def remove(self, account: int) -> AccountState:
        """Remove and return an account's state (for migration)."""
        try:
            balance = self._balances.pop(account)
        except KeyError:
            raise ChainError(
                f"account {account} is not resident on shard {self.shard_id}"
            ) from None
        return AccountState(balance=balance, nonce=self._nonces.pop(account))

    # -- columnar bulk access (settlement scatter) ------------------------------

    def credit_many(self, accounts: np.ndarray, amounts: np.ndarray) -> None:
        """Apply a stream of credits in order (settlement scatter)."""
        if not all(math.isfinite(a) for a in amounts.tolist()):
            raise ValidationError("credit amounts must be finite")
        self._check_writable_many(accounts)
        bal = self._balances
        non = self._nonces
        for account, amount in zip(accounts.tolist(), amounts.tolist()):
            bal[account] = bal.get(account, 0.0) + amount
            non.setdefault(account, 0)

    def balances_many(self, accounts: np.ndarray) -> np.ndarray:
        """Balances of ``accounts`` (0.0 where not resident here)."""
        return np.array(
            [self._balances.get(a, 0.0) for a in accounts.tolist()],
            dtype=np.float64,
        )

    def apply_many(
        self, accounts: np.ndarray, deltas: np.ndarray, debited: np.ndarray
    ) -> None:
        """Apply signed balance deltas in order; bump each debit's nonce."""
        if not all(math.isfinite(d) for d in deltas.tolist()):
            raise ValidationError("balance deltas must be finite")
        self._check_writable_many(accounts)
        bal = self._balances
        non = self._nonces
        for account, delta in zip(accounts.tolist(), deltas.tolist()):
            bal[account] = bal.get(account, 0.0) + delta
            non.setdefault(account, 0)
        for account in debited.tolist():
            non[account] += 1

    # -- bulk migration (batched reconfiguration hot path) ---------------------

    def take_many(
        self, accounts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Remove ``accounts`` and return their (balances, nonces).

        Every account must be resident — callers group by the located
        holding shard first. The columnar twin of a :meth:`remove`
        loop; a non-resident account raises :class:`ChainError` before
        anything is removed.
        """
        ids = accounts.tolist()
        bal = self._balances
        non = self._nonces
        for account in ids:
            if account not in bal:
                raise ChainError(
                    f"account {account} is not resident on shard "
                    f"{self.shard_id}"
                )
        n = len(ids)
        balances = np.fromiter(
            (bal.pop(a) for a in ids), dtype=np.float64, count=n
        )
        nonces = np.fromiter((non.pop(a) for a in ids), dtype=np.int64, count=n)
        return balances, nonces

    def put_many(
        self,
        accounts: np.ndarray,
        balances: np.ndarray,
        nonces: np.ndarray,
    ) -> None:
        """Install state rows in bulk (the columnar twin of ``put``)."""
        self._check_writable_many(accounts)
        bal = self._balances
        non = self._nonces
        for account, balance, nonce in zip(
            accounts.tolist(), balances.tolist(), nonces.tolist()
        ):
            bal[account] = balance
            non[account] = nonce

    def total_balance(self) -> float:
        """Exactly-rounded sum of resident balances (conservation checks)."""
        return math.fsum(self._balances.values())

    def state_root(self) -> str:
        """Deterministic digest over the sorted account states."""
        return _state_root_digest(
            [
                (account, balance, self._nonces[account])
                for account, balance in self._balances.items()
            ]
        )


def locate_scan(registry, account: int) -> Optional[int]:
    """Reference O(k) locate: scan the stores in shard order."""
    for store in registry.stores:
        if account in store:
            return store.shard_id
    return None


class _DictStateRegistry:
    """The registry surface over dict stores, locating by the scan."""

    def __init__(self, k: int, n_accounts: int) -> None:
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        if n_accounts < 0:
            raise ValidationError(f"n_accounts must be >= 0, got {n_accounts}")
        self.k = k
        self.n_accounts = int(n_accounts)
        peers: List[ShardStateStore] = []
        for shard in range(k):
            peers.append(ShardStateStore(shard, self.n_accounts, peers))
        self.stores = tuple(peers)

    def store_of(self, shard: int) -> ShardStateStore:
        if not 0 <= shard < self.k:
            raise ValidationError(f"shard {shard} out of range [0, {self.k})")
        return self.stores[shard]

    def locate(self, account: int) -> Optional[int]:
        return locate_scan(self, account)

    def locate_many(self, accounts: np.ndarray) -> np.ndarray:
        located = (locate_scan(self, int(a)) for a in np.asarray(accounts))
        return np.array(
            [-1 if shard is None else shard for shard in located],
            dtype=np.int64,
        )

    def migrate(self, account: int, from_shard: int, to_shard: int) -> int:
        """Move one account's state by remove + put; returns bytes moved."""
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

    def migrate_batch(self, accounts: np.ndarray, to_shards: np.ndarray) -> int:
        """Move many accounts: one bulk take per source shard, then one
        bulk put per target shard."""
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
        for shard in np.unique(src).tolist():
            rows = src == shard
            balances[rows], nonces[rows] = self.stores[shard].take_many(
                acc[rows]
            )
        for shard in np.unique(dst).tolist():
            rows = dst == shard
            self.stores[shard].put_many(acc[rows], balances[rows], nonces[rows])
        return len(acc) * STATE_RECORD_BYTES

    def total_balance(self) -> float:
        """Exactly-rounded sum of every balance."""
        return math.fsum(
            balance for store in self.stores for balance in store._balances.values()
        )


def dict_registry(k: int, n_accounts: int) -> _DictStateRegistry:
    """A registry running on dict stores (the oracle side)."""
    return _DictStateRegistry(k, n_accounts)


def make_registry(backend: str, k: int, n_accounts: int):
    """The oracle registry for ``"dict"``, production for ``"dense"``."""
    if backend == BACKEND_DICT:
        return dict_registry(k, n_accounts)
    if backend == BACKEND_DENSE:
        return StateRegistry(k, n_accounts=n_accounts)
    raise ValueError(f"unknown backend {backend!r}; use one of {STATE_BACKENDS}")
