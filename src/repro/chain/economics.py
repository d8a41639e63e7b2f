"""Migration-fee economics and the DoS argument (Section VII-B).

The paper argues flooding attacks against Mosaic are economically
irrational: every migration request pays a fee, so sustaining a flood
costs the attacker linearly while the beacon chain's gain-prioritised,
capacity-capped commitment keeps honest high-gain requests flowing.
This module makes that argument executable:

* :class:`MigrationFeeSchedule` — a congestion-priced MR fee (flat base
  plus a surge component when the beacon mempool runs hot);
* :func:`flooding_attack_cost` — what an attacker pays to keep the
  beacon chain saturated for a number of epochs;
* :func:`simulate_flooding` — runs the commitment policy under attack
  and reports how many honest requests still commit.

It also owns the **value-faithful genesis funding** used by the unified
engine's observed-funding mode: :func:`observed_funding_balances`
derives per-account genesis balances from the value flow a trace
actually records, so an executed replay settles the trace's economics
instead of a uniform synthetic supply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.chain.migration import MigrationRequest, select_migrations_kernel
from repro.chain.transaction import DEFAULT_TRANSFER_AMOUNT, TransactionBatch
from repro.errors import ConfigurationError, MigrationError, ValidationError


#: Canonical accumulation granularity for observed funding. Float
#: addition is non-associative, so the *order* partial sums combine in
#: is part of the funding contract: both the eager function and the
#: streaming accumulator sum fixed 65 536-row slice partials in row
#: order, which is what makes a streamed sizing pass bit-identical to
#: the materialised computation regardless of source chunk sizes.
FUNDING_CHUNK_ROWS = 65_536


def _funding_chunk_partial(chunk: TransactionBatch) -> np.ndarray:
    """Outflow-per-sender partial for one canonical chunk."""
    outflow = chunk.amounts(DEFAULT_TRANSFER_AMOUNT)
    if chunk.fees is not None:
        outflow = outflow + chunk.fees
    return np.bincount(chunk.senders, weights=outflow)


def observed_funding_balances(
    batch: TransactionBatch,
    n_accounts: int,
) -> np.ndarray:
    """Per-account genesis balances sufficient to replay ``batch``.

    One vectorised sufficiency pass: every account is funded with its
    total observed outflow — the sum of the amounts (plus fees) it
    sends anywhere in the trace. That bound is *relay-safe*:
    cross-shard credits arrive a relay delay late, so an exact
    prefix-min schedule that counts incoming credits would under-fund
    receivers whose spending rides in-flight deposits; total outflow
    covers every debit regardless of settlement timing, which is what
    makes replayed traces settle with zero overdraft aborts. Accounts
    that never send get zero.

    Batches without a ``values`` column fund each send at
    :data:`~repro.chain.transaction.DEFAULT_TRANSFER_AMOUNT`, the
    amount the executor moves, so metric traces stay replayable under
    observed funding.

    Accumulation is canonically chunked (:data:`FUNDING_CHUNK_ROWS`):
    partial sums are combined in fixed 65 536-row slices so
    :class:`ObservedFundingAccumulator` — fed the same rows in any
    chunking — produces the same bits.
    """
    if n_accounts < 0:
        raise ValidationError(f"n_accounts must be >= 0, got {n_accounts}")
    if len(batch) and batch.max_account_id() >= n_accounts:
        raise ValidationError(
            f"batch references account {batch.max_account_id()} but the "
            f"universe only covers {n_accounts} accounts"
        )
    balances = np.zeros(n_accounts, dtype=np.float64)
    for start in range(0, len(batch), FUNDING_CHUNK_ROWS):
        partial = _funding_chunk_partial(
            batch[start : start + FUNDING_CHUNK_ROWS]
        )
        balances[: len(partial)] += partial
    return balances


class ObservedFundingAccumulator:
    """Streaming twin of :func:`observed_funding_balances`.

    Feed it source chunks in row order (:meth:`add`), then
    :meth:`finalise` with the resolved universe size — the result is
    bit-identical to the eager function over the materialised
    concatenation of those chunks, for *any* incoming chunk sizes:
    rows buffer to exact :data:`FUNDING_CHUNK_ROWS` boundaries before a
    partial is computed, reproducing the eager function's canonical
    partial-sum order. The chunks of one stream carry the same columns
    (:meth:`TransactionBatch.concat_many` rejects anything else).
    """

    def __init__(self) -> None:
        self._pending: List[TransactionBatch] = []
        self._pending_rows = 0
        self._balances = np.zeros(0, dtype=np.float64)
        self._max_id = -1
        self._rows = 0
        self._finalised = False

    @property
    def rows(self) -> int:
        """Total rows fed so far (the sizing pass's row count)."""
        return self._rows

    @property
    def max_account_id(self) -> int:
        """Largest account id seen so far (-1 when none)."""
        return self._max_id

    def add(self, chunk: TransactionBatch) -> None:
        """Feed the next chunk of the row stream."""
        if self._finalised:
            raise ValidationError("funding accumulator already finalised")
        if len(chunk) == 0:
            return
        self._rows += len(chunk)
        self._max_id = max(self._max_id, chunk.max_account_id())
        self._pending.append(chunk)
        self._pending_rows += len(chunk)
        while self._pending_rows >= FUNDING_CHUNK_ROWS:
            buffered = TransactionBatch.concat_many(self._pending)
            self._consume(buffered[:FUNDING_CHUNK_ROWS])
            rest = buffered[FUNDING_CHUNK_ROWS:]
            self._pending = [rest] if len(rest) else []
            self._pending_rows = len(rest)

    def _consume(self, chunk: TransactionBatch) -> None:
        partial = _funding_chunk_partial(chunk)
        if len(partial) > len(self._balances):
            grown = np.zeros(len(partial), dtype=np.float64)
            grown[: len(self._balances)] = self._balances
            self._balances = grown
        self._balances[: len(partial)] += partial

    def finalise(self, n_accounts: int) -> np.ndarray:
        """Flush the buffer and return the length-``n_accounts``
        balances."""
        if self._finalised:
            raise ValidationError("funding accumulator already finalised")
        if n_accounts < 0:
            raise ValidationError(f"n_accounts must be >= 0, got {n_accounts}")
        if self._max_id >= n_accounts:
            raise ValidationError(
                f"batch references account {self._max_id} but the "
                f"universe only covers {n_accounts} accounts"
            )
        if self._pending:
            self._consume(TransactionBatch.concat_many(self._pending))
            self._pending = []
            self._pending_rows = 0
        self._finalised = True
        balances = np.zeros(n_accounts, dtype=np.float64)
        balances[: len(self._balances)] += self._balances
        return balances


@dataclass(frozen=True)
class MigrationFeeSchedule:
    """Congestion-priced fees for beacon-chain migration requests.

    ``fee = base_fee * (1 + surge_factor * max(0, demand/capacity - 1))``

    — flat while the beacon chain has headroom, rising linearly with
    over-subscription, which is the standard blockchain fee response
    the paper's DoS argument relies on.
    """

    base_fee: float = 1.0
    surge_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.base_fee <= 0:
            raise ConfigurationError(
                f"base_fee must be > 0, got {self.base_fee}"
            )
        if self.surge_factor < 0:
            raise ConfigurationError(
                f"surge_factor must be >= 0, got {self.surge_factor}"
            )

    def fee(self, demand: int, capacity: int) -> float:
        """Per-request fee when ``demand`` requests chase ``capacity`` slots."""
        if demand < 0:
            raise ValidationError(f"demand must be >= 0, got {demand}")
        if capacity < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        over_subscription = max(0.0, demand / capacity - 1.0)
        return self.base_fee * (1.0 + self.surge_factor * over_subscription)


def flooding_attack_cost(
    schedule: MigrationFeeSchedule,
    attack_requests_per_epoch: int,
    honest_requests_per_epoch: int,
    capacity: int,
    epochs: int,
) -> float:
    """Total fee an attacker pays to sustain a flood for ``epochs``.

    The attacker pays the congestion-priced fee for every submitted
    request (submission is paid whether or not the request commits —
    the anti-spam property the paper's argument needs).
    """
    if attack_requests_per_epoch < 0 or honest_requests_per_epoch < 0:
        raise ValidationError("request counts must be >= 0")
    if epochs < 0:
        raise ValidationError(f"epochs must be >= 0, got {epochs}")
    total = 0.0
    for _ in range(epochs):
        demand = attack_requests_per_epoch + honest_requests_per_epoch
        total += attack_requests_per_epoch * schedule.fee(demand, capacity)
    return total


@dataclass
class FloodingOutcome:
    """Result of one simulated flooding epoch."""

    honest_committed: int
    attacker_committed: int
    attacker_cost: float
    honest_cost: float

def simulate_flooding(
    honest_requests: Sequence[MigrationRequest],
    attacker_accounts: Sequence[int],
    capacity: int,
    schedule: MigrationFeeSchedule,
    attacker_gain: float = 0.0,
) -> FloodingOutcome:
    """Run one gain-prioritised commitment round under a flood.

    Attacker requests carry ``attacker_gain`` (a rational attacker has
    no genuine potential improvement to claim, so its default is 0 —
    inflating it does not help: the gain field is client-computed but
    the *fee* is what scarcity prices, and honest clients with real
    gains outbid squatters in any fee auction; here we model the
    paper's simpler gain-prioritised rule).
    """
    attackers = np.asarray(attacker_accounts, dtype=np.int64)
    if (attackers < 0).any():
        raise MigrationError(
            f"account must be >= 0, got {int(attackers[attackers < 0][0])}"
        )
    honest_accounts = np.array(
        [r.account for r in honest_requests], dtype=np.int64
    )
    accounts = np.concatenate([honest_accounts, attackers])
    gains = np.concatenate(
        [
            np.array([r.gain for r in honest_requests], dtype=np.float64),
            np.full(len(attackers), float(attacker_gain)),
        ]
    )
    # Without a mapping the kernel skips the stale filter, so the shard
    # columns play no part in the round.
    shards = np.zeros(len(accounts), dtype=np.int64)
    committed, _rejected = select_migrations_kernel(
        accounts, shards, shards, gains, None, None, capacity
    )
    honest_committed = int(np.isin(accounts[committed], honest_accounts).sum())
    attacker_committed = len(committed) - honest_committed

    demand = len(accounts)
    fee = schedule.fee(demand, capacity)
    return FloodingOutcome(
        honest_committed=honest_committed,
        attacker_committed=attacker_committed,
        attacker_cost=len(attackers) * fee,
        honest_cost=len(honest_requests) * fee,
    )
