"""Per-request reference for the migration-request path (a test oracle).

Production commits migration requests (MRs) through one columnar rule,
``select_migrations_kernel``, and moves account state with
``StateRegistry.migrate_batch``. This module keeps the object-at-a-time
formulation of the same protocol so property tests can check
``select_migrations_kernel``, ``BeaconChain.commit_epoch`` and
``EpochReconfigurator.run`` against it:

* :func:`select_requests` — stale filter, per-account dedup and a
  gain-prioritised (or FIFO) capacity cap over ``MigrationRequest``
  objects; :func:`prioritize_requests` is its gain rule alone;
* :class:`ReferenceChain` — an object beacon plus reconfigurator that
  commits with :func:`select_requests` and replays each committed
  request through ``mapping.assign`` and ``StateRegistry.migrate``;
* :func:`apply_committed` — applies a ``BeaconChain``'s committed
  batches to a mapping with no state movement, the batch-side oracle
  the reference chain is compared with;
* :func:`take_requests` — rows of a ``MigrationRequestBatch`` as
  request objects, so batch results compare with object results.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chain.beacon import BeaconChain
from repro.chain.mapping import ShardMapping
from repro.chain.migration import MigrationRequest, MigrationRequestBatch
from repro.chain.state import StateRegistry
from repro.errors import ValidationError

Requests = List[MigrationRequest]


def is_stale(request: MigrationRequest, mapping: ShardMapping) -> bool:
    """True when ``request`` no longer matches ``mapping``."""
    return (
        request.account >= mapping.n_accounts
        or request.to_shard >= mapping.k
        or mapping.shard_of(request.account) != request.from_shard
    )


def prioritize_requests(
    requests: Sequence[MigrationRequest], capacity: Optional[int]
) -> Tuple[Requests, Requests]:
    """Split ``requests`` into (committed, rejected) under ``capacity``.

    Duplicate requests for one account keep only the highest-gain
    request (the earliest wins a tie). The survivors are ordered by
    descending gain, ties broken by account id, and the top
    ``capacity`` commit.
    """
    best_per_account: Dict[int, MigrationRequest] = {}
    duplicates: Requests = []
    for request in requests:
        current = best_per_account.get(request.account)
        if current is None or request.gain > current.gain:
            if current is not None:
                duplicates.append(current)
            best_per_account[request.account] = request
        else:
            duplicates.append(request)
    ordered = sorted(
        best_per_account.values(), key=lambda r: (-r.gain, r.account)
    )
    if capacity is None or capacity >= len(ordered):
        return ordered, duplicates
    if capacity < 0:
        raise ValidationError(f"capacity must be >= 0, got {capacity}")
    return ordered[:capacity], ordered[capacity:] + duplicates


def select_requests(
    requests: Sequence[MigrationRequest],
    capacity: Optional[int] = None,
    mapping: Optional[ShardMapping] = None,
    fifo: bool = False,
) -> Tuple[Requests, Requests]:
    """One commitment round over objects: (committed, rejected).

    ``committed`` is in commitment order. FIFO keeps each account's
    first request and commits in submission order.
    """
    valid: Requests = []
    stale: Requests = []
    for request in requests:
        if mapping is not None and is_stale(request, mapping):
            stale.append(request)
        else:
            valid.append(request)
    if not fifo:
        committed, rejected = prioritize_requests(valid, capacity)
        return committed, rejected + stale
    seen = set()
    deduped: Requests = []
    dropped: Requests = []
    for request in valid:
        if request.account in seen:
            dropped.append(request)
        else:
            seen.add(request.account)
            deduped.append(request)
    cut = len(deduped) if capacity is None else capacity
    return deduped[:cut], deduped[cut:] + dropped + stale


class ReferenceChain:
    """Object beacon + reconfigurator, one request at a time.

    ``submit``/``commit_epoch`` mirror ``BeaconChain``;
    ``reconfigure`` mirrors the MR-application part of
    ``EpochReconfigurator.run``: every request committed since the last
    call assigns its account in ``mapping`` and, given a registry,
    moves the account's state with a locate + ``migrate``.
    """

    def __init__(self, registry: Optional[StateRegistry] = None) -> None:
        self.registry = registry
        self._pending: Requests = []
        self._unsynced: Requests = []

    def submit(self, requests: Sequence[MigrationRequest]) -> None:
        self._pending.extend(requests)

    def commit_epoch(
        self,
        capacity: Optional[int] = None,
        mapping: Optional[ShardMapping] = None,
    ) -> Tuple[Requests, Requests]:
        committed, rejected = select_requests(self._pending, capacity, mapping)
        self._pending = []
        self._unsynced.extend(committed)
        return committed, rejected

    def reconfigure(self, mapping: ShardMapping) -> int:
        """Apply the requests committed since the last call; return the
        number applied (requests outside ``mapping`` are skipped)."""
        requests, self._unsynced = self._unsynced, []
        applied = 0
        for request in requests:
            if request.account >= mapping.n_accounts:
                continue
            mapping.assign(request.account, request.to_shard)
            applied += 1
            if self.registry is None:
                continue
            current = self.registry.locate(request.account)
            if current is not None and current != request.to_shard:
                self.registry.migrate(request.account, current, request.to_shard)
        return applied


def apply_committed(
    beacon: BeaconChain, mapping: ShardMapping, since_height: int = 0
) -> int:
    """Apply ``beacon``'s committed MRs from ``since_height`` on to
    ``mapping`` in place, request by request; return the count applied
    (requests outside ``mapping`` are skipped)."""
    applied = 0
    for batch in beacon.iter_committed_batches(since_height):
        for request in take_requests(batch):
            if request.account < mapping.n_accounts:
                mapping.assign(request.account, request.to_shard)
                applied += 1
    return applied


def take_requests(
    batch: MigrationRequestBatch, indices: Optional[np.ndarray] = None
) -> Requests:
    """The rows of ``batch`` at ``indices`` (default: every row) as
    request objects, in order."""
    if indices is None:
        indices = np.arange(len(batch))
    return [
        MigrationRequest(
            account=int(batch.accounts[i]),
            from_shard=int(batch.from_shards[i]),
            to_shard=int(batch.to_shards[i]),
            gain=float(batch.gains[i]),
            epoch=batch.epoch,
        )
        for i in np.asarray(indices, dtype=np.int64)
    ]
