"""Scalar-dict state store and scan ``locate`` (a test oracle).

Production keeps shard state in one store,
``repro.chain.state.DenseShardStateStore``: first-fit columns behind a
shared slot directory whose ``home`` column is the one record of where
an account lives. This module keeps the plain formulation — two dicts
per shard, residency found by scanning the stores in shard order — so
property tests can drive both through the same operations and compare
balances, nonces, membership, state roots, residency and raised errors
after every step. It shares no structure with the code it checks:

* :class:`ShardStateStore` — the dict store, honouring the dense
  store's full contract (scalar, bulk and migration entry points, and
  the single-residency write rules: an id outside ``[0, capacity)``
  raises ``UnknownAccountError``, an account held by a sibling store
  raises ``ResidencyError``, bulk writes check before they mutate);
* :func:`dict_registry` — a ``StateRegistry`` whose stores are dict
  stores and whose ``locate``/``locate_many`` are the scan, so
  ``migrate``, ``migrate_batch`` and ``compact_stores`` run unchanged
  over them;
* :func:`locate_scan` — the O(k) scan.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.chain.state import AccountState, StateRegistry, _state_root_digest
from repro.errors import (
    ChainError,
    ResidencyError,
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
    another holder of the account. The slot and compaction hooks are
    no-ops: dicts hold no columns.
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
        if amount < 0:
            raise ValidationError(f"credit amount must be >= 0, got {amount}")
        self._check_writable(account)
        balance = self._balances.get(account, 0.0) + amount
        self._balances[account] = balance
        nonce = self._nonces.setdefault(account, 0)
        return AccountState(balance=balance, nonce=nonce)

    def debit(self, account: int, amount: float) -> AccountState:
        """Remove funds; raises :class:`ChainError` when underfunded."""
        if amount < 0:
            raise ValidationError(f"debit amount must be >= 0, got {amount}")
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

    def column_nbytes(self) -> int:
        """Array-column bytes held by this store (0: dicts only)."""
        return 0

    def slack_slots(self) -> int:
        """Vacated-but-unreleased slots (0: dicts shrink themselves)."""
        return 0

    def compact(self) -> int:
        """No-op (no columns); returns bytes reclaimed (0)."""
        return 0

    #: Physical bytes rewritten by the most recent :meth:`compact` call.
    last_compact_moved_bytes: int = 0


def locate_scan(registry: StateRegistry, account: int) -> Optional[int]:
    """Reference O(k) locate: scan the stores in shard order."""
    for store in registry.stores:
        if account in store:
            return store.shard_id
    return None


class _DictStateRegistry(StateRegistry):
    """``StateRegistry`` over dict stores, locating by the scan."""

    def __init__(self, k: int, n_accounts: int) -> None:
        super().__init__(k, n_accounts)
        peers: List[ShardStateStore] = []
        for shard in range(k):
            peers.append(ShardStateStore(shard, self.n_accounts, peers))
        self.stores = tuple(peers)

    def locate(self, account: int) -> Optional[int]:
        return locate_scan(self, account)

    def locate_many(self, accounts: np.ndarray) -> np.ndarray:
        located = (locate_scan(self, int(a)) for a in np.asarray(accounts))
        return np.array(
            [-1 if shard is None else shard for shard in located],
            dtype=np.int64,
        )


def dict_registry(k: int, n_accounts: int) -> StateRegistry:
    """A ``StateRegistry`` running on dict stores (the oracle side)."""
    return _DictStateRegistry(k, n_accounts)


def make_registry(backend: str, k: int, n_accounts: int) -> StateRegistry:
    """The oracle registry for ``"dict"``, production for ``"dense"``."""
    if backend == BACKEND_DICT:
        return dict_registry(k, n_accounts)
    if backend == BACKEND_DENSE:
        return StateRegistry(k, n_accounts=n_accounts)
    raise ValueError(f"unknown backend {backend!r}; use one of {STATE_BACKENDS}")
