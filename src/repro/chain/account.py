"""Accounts and the address registry.

Externally, accounts are Ethereum-style hex addresses. Internally, every
hot path (allocation, metrics, graph building) works on dense integer
account ids. :class:`AccountRegistry` provides the bidirectional mapping
and guarantees ids are assigned densely in registration order, which lets
the rest of the library index numpy arrays by account id.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.errors import UnknownAccountError, ValidationError

Address = str

_ADDRESS_BYTES = 20


def _normalize(address: str) -> str:
    if not isinstance(address, str):
        raise ValidationError(f"address must be str, got {type(address).__name__}")
    addr = address.lower()
    if addr.startswith("0x"):
        body = addr[2:]
    else:
        body = addr
        addr = "0x" + body
    if len(body) != _ADDRESS_BYTES * 2:
        raise ValidationError(
            f"address must be {_ADDRESS_BYTES} bytes ({_ADDRESS_BYTES * 2} hex chars), "
            f"got {address!r}"
        )
    try:
        int(body, 16)
    except ValueError as exc:
        raise ValidationError(f"address is not valid hex: {address!r}") from exc
    return addr


def address_from_id(account_id: int) -> Address:
    """Deterministically derive a synthetic 20-byte address for an id.

    Used by the trace generator so synthetic accounts have realistic
    addresses while remaining reproducible.
    """
    if account_id < 0:
        raise ValidationError(f"account_id must be >= 0, got {account_id}")
    digest = hashlib.sha256(f"repro-account-{account_id}".encode()).digest()
    return "0x" + digest[:_ADDRESS_BYTES].hex()


class AccountRegistry:
    """Bidirectional address <-> dense integer id mapping.

    Ids are assigned in first-registration order starting at 0, so a
    registry with ``n`` accounts always covers exactly ``range(n)``.
    """

    def __init__(self, addresses: Optional[Iterable[Address]] = None) -> None:
        self._id_of: Dict[Address, int] = {}
        self._address_of: List[Address] = []
        if addresses is not None:
            for address in addresses:
                self.register(address)

    def __len__(self) -> int:
        return len(self._address_of)

    def __contains__(self, address: Address) -> bool:
        try:
            return _normalize(address) in self._id_of
        except ValidationError:
            return False

    def __iter__(self) -> Iterator[Address]:
        return iter(self._address_of)

    def register(self, address: Address) -> int:
        """Register ``address`` (idempotent) and return its id."""
        return self._insert(_normalize(address))

    def register_many(self, addresses: Sequence[Address]) -> List[int]:
        """Register ``addresses`` in order, all or none; return their ids.

        Every address is normalised before any is registered, so a bad
        one raises :class:`ValidationError` with the registry unchanged.
        """
        normalized = [_normalize(address) for address in addresses]
        return [self._insert(addr) for addr in normalized]

    def _insert(self, addr: Address) -> int:
        """The id of a normalised address, assigning the next one if new."""
        existing = self._id_of.get(addr)
        if existing is not None:
            return existing
        account_id = len(self._address_of)
        self._id_of[addr] = account_id
        self._address_of.append(addr)
        return account_id

    def address_of(self, account_id: int) -> Address:
        """Return the address registered under ``account_id``."""
        if not 0 <= account_id < len(self._address_of):
            raise UnknownAccountError(account_id)
        return self._address_of[account_id]

    def ensure_size(self, n_accounts: int) -> None:
        """Register synthetic addresses until at least ``n_accounts`` exist."""
        while len(self._address_of) < n_accounts:
            self.register(address_from_id(len(self._address_of)))

    @classmethod
    def synthetic(cls, n_accounts: int) -> "AccountRegistry":
        """Build a registry of ``n_accounts`` deterministic addresses."""
        registry = cls()
        registry.ensure_size(n_accounts)
        return registry
