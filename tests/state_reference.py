"""Scalar-dict state store and scan ``locate`` (a test oracle).

Production keeps shard state in one store,
``repro.chain.state.DenseShardStateStore``: first-fit columns behind a
shared slot directory, with a spill dict for stragglers. This module
keeps the plain formulation — two dicts per shard, membership found by
scanning the stores in shard order — so property tests can drive both
through the same operations and compare balances, nonces, membership,
state roots and residency after every step:

* :class:`ShardStateStore` — the dict store, honouring the dense
  store's full contract (scalar, bulk and migration entry points);
* :func:`dict_registry` — a ``StateRegistry`` whose stores are swapped
  for dict stores sharing its residency index, so ``locate``,
  ``migrate_batch`` and ``compact_stores`` run unchanged over them;
* :func:`locate_scan` — the O(k) scan the residency index replaced.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.chain.state import (
    AccountState,
    ResidencyIndex,
    StateRegistry,
    _state_root_digest,
)
from repro.errors import ChainError, ValidationError

#: Parametrisation ids of the equivalence suites: the oracle and
#: production.
BACKEND_DICT = "dict"
BACKEND_DENSE = "dense"
STATE_BACKENDS = (BACKEND_DICT, BACKEND_DENSE)


class ShardStateStore:
    """The state of all accounts resident on one shard, in two dicts.

    Balances and nonces live in two parallel scalar dicts; ``get``
    materialises an :class:`AccountState` lazily. When an ``index`` is
    attached (by :func:`dict_registry`), every membership change is
    mirrored into it. The slot and compaction hooks are no-ops: dicts
    hold no columns.
    """

    def __init__(
        self, shard_id: int, index: Optional[ResidencyIndex] = None
    ) -> None:
        if shard_id < 0:
            raise ValidationError(f"shard_id must be >= 0, got {shard_id}")
        self.shard_id = shard_id
        self._balances: Dict[int, float] = {}
        self._nonces: Dict[int, int] = {}
        self._index = index

    def __len__(self) -> int:
        return len(self._balances)

    def __contains__(self, account: int) -> bool:
        return account in self._balances

    def accounts(self) -> Iterator[int]:
        """Resident account ids (unspecified order)."""
        return iter(self._balances)

    def get(self, account: int) -> AccountState:
        """State of ``account``; a fresh zero state when never seen."""
        balance = self._balances.get(account)
        if balance is None:
            return AccountState()
        return AccountState(balance=balance, nonce=self._nonces[account])

    def put(self, account: int, state: AccountState) -> None:
        """Install ``state`` for ``account``."""
        if account < 0:
            raise ValidationError(f"account must be >= 0, got {account}")
        if self._index is not None and account not in self._balances:
            self._index.add(self.shard_id, account)
        self._balances[account] = state.balance
        self._nonces[account] = state.nonce

    def credit(self, account: int, amount: float) -> AccountState:
        """Add funds (creating the account on first touch)."""
        if amount < 0:
            raise ValidationError(f"credit amount must be >= 0, got {amount}")
        if self._index is not None and account not in self._balances:
            self._index.add(self.shard_id, account)
        balance = self._balances.get(account, 0.0) + amount
        self._balances[account] = balance
        nonce = self._nonces.setdefault(account, 0)
        return AccountState(balance=balance, nonce=nonce)

    def debit(self, account: int, amount: float) -> AccountState:
        """Remove funds; raises :class:`ChainError` when underfunded."""
        if amount < 0:
            raise ValidationError(f"debit amount must be >= 0, got {amount}")
        balance = self._balances.get(account, 0.0)
        if amount > balance:
            raise ChainError(f"insufficient balance: {balance} < {amount}")
        if self._index is not None and account not in self._balances:
            self._index.add(self.shard_id, account)
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
        if self._index is not None:
            self._index.discard(self.shard_id, account)
        return AccountState(balance=balance, nonce=self._nonces.pop(account))

    # -- columnar bulk access (settlement scatter) ------------------------------

    def credit_many(self, accounts: np.ndarray, amounts: np.ndarray) -> None:
        """Apply a stream of credits in order (settlement scatter)."""
        bal = self._balances
        non = self._nonces
        for account, amount in zip(accounts.tolist(), amounts.tolist()):
            bal[account] = bal.get(account, 0.0) + amount
            non.setdefault(account, 0)
        if self._index is not None:
            self._index.add_many(self.shard_id, accounts)

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
        if self._index is not None:
            self._index.discard_many(self.shard_id, accounts)
        return balances, nonces

    def put_many(
        self,
        accounts: np.ndarray,
        balances: np.ndarray,
        nonces: np.ndarray,
    ) -> None:
        """Install state rows in bulk (the columnar twin of ``put``)."""
        bal = self._balances
        non = self._nonces
        for account, balance, nonce in zip(
            accounts.tolist(), balances.tolist(), nonces.tolist()
        ):
            bal[account] = balance
            non[account] = nonce
        if self._index is not None:
            self._index.add_many(self.shard_id, accounts)

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

    def rehomeable_extras(self) -> int:
        """Spill entries :meth:`compact` could re-home (0: no spill)."""
        return 0

    def compact(self) -> int:
        """No-op (no columns); returns bytes reclaimed (0)."""
        return 0

    #: Physical bytes rewritten by the most recent :meth:`compact` call.
    last_compact_moved_bytes: int = 0

    def slot_stats(self) -> Dict[str, int]:
        """Slot telemetry (no columns: capacity and free slots are 0)."""
        return {
            "capacity_slots": 0,
            "free_slots": 0,
            "live_slots": len(self._balances),
        }


def dict_registry(k: int, n_accounts: int = 0) -> StateRegistry:
    """A ``StateRegistry`` running on dict stores (the oracle side).

    The stores share the registry's residency index, so every registry
    method — ``locate``, ``migrate``, ``migrate_batch``,
    ``compact_stores`` — behaves exactly as over the dense stores.
    """
    registry = StateRegistry(k, n_accounts=n_accounts)
    registry.stores = tuple(
        ShardStateStore(shard, index=registry.residency_index)
        for shard in range(k)
    )
    return registry


def make_registry(backend: str, k: int, n_accounts: int = 0) -> StateRegistry:
    """The oracle registry for ``"dict"``, production for ``"dense"``."""
    if backend == BACKEND_DICT:
        return dict_registry(k, n_accounts)
    if backend == BACKEND_DENSE:
        return StateRegistry(k, n_accounts=n_accounts)
    raise ValueError(f"unknown backend {backend!r}; use one of {STATE_BACKENDS}")


def locate_scan(registry: StateRegistry, account: int) -> Optional[int]:
    """Reference O(k) locate: scan the stores in shard order."""
    for store in registry.stores:
        if account in store:
            return store.shard_id
    return None
