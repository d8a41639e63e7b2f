"""Transactions: a per-object view and a columnar batch view.

The paper's model (Section III-A) treats a transaction as the set of
accounts it modifies, ``A_Tx``. Ethereum value transfers touch exactly two
accounts (sender, receiver), which is what both the real dataset and our
synthetic traces contain, so the columnar hot path stores sender/receiver
arrays. :class:`Transaction` is the friendly single-object API used in
examples, wallets, and block bodies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.util.idsets import unique_ids

#: On-disk size we charge per committed transaction record when accounting
#: storage/communication (Table VI).  Roughly an Ethereum ETL CSV row.
TX_RECORD_BYTES = 109

#: Units a transfer moves when its batch carries no ``values`` column
#: (metric traces): the executor moves it and observed funding funds it.
DEFAULT_TRANSFER_AMOUNT = 1.0

#: A batch's directed-edge table: ``(owner, counterparty, count)``.
EdgeTable = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: One past the largest account id :func:`directed_edge_table` can key:
#: ``owner * span + counterparty`` must fit an int64.
_MAX_EDGE_SPAN = 3_037_000_499


def _finite_nonnegative(column: np.ndarray) -> bool:
    """True when every entry is finite and >= 0 (NaN fails both tests)."""
    return not len(column) or bool(
        column.min() >= 0 and np.isfinite(column).all()
    )


@dataclass(frozen=True)
class Transaction:
    """A single committed transaction.

    ``sender`` and ``receiver`` are integer account ids (see
    :class:`repro.chain.account.AccountRegistry`).
    """

    sender: int
    receiver: int
    block: int = 0
    value: float = 0.0
    fee: float = 0.0
    tx_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.sender < 0 or self.receiver < 0:
            raise ValidationError(
                f"account ids must be >= 0, got ({self.sender}, {self.receiver})"
            )
        if self.block < 0:
            raise ValidationError(f"block must be >= 0, got {self.block}")
        if not (0 <= self.value < math.inf and 0 <= self.fee < math.inf):
            raise ValidationError("value and fee must be finite and >= 0")

    @property
    def accounts(self) -> FrozenSet[int]:
        """The set ``A_Tx`` of accounts this transaction modifies."""
        return frozenset((self.sender, self.receiver))

    def involves(self, account_id: int) -> bool:
        """True when ``account_id`` is modified by this transaction."""
        return account_id == self.sender or account_id == self.receiver

    def counterparty(self, account_id: int) -> int:
        """Return the other account, from ``account_id``'s point of view."""
        if account_id == self.sender:
            return self.receiver
        if account_id == self.receiver:
            return self.sender
        raise ValidationError(
            f"account {account_id} is not part of transaction {self!r}"
        )


class TransactionBatch:
    """Columnar batch of transactions (struct-of-arrays).

    All metric, allocation and execution hot paths operate on batches:
    numpy arrays ``senders``, ``receivers`` and ``blocks`` of equal
    length, plus optional ``values``/``fees`` columns carrying
    per-transfer amounts and fees for the cross-shard executor (``None``
    when the batch only feeds metrics/allocation, which keeps those
    paths allocation-free). Batches are immutable; slicing returns
    views wherever numpy allows.
    """

    __slots__ = (
        "senders",
        "receivers",
        "blocks",
        "values",
        "fees",
        "_touched",
        "_edges",
    )

    def __init__(
        self,
        senders: np.ndarray,
        receivers: np.ndarray,
        blocks: Optional[np.ndarray] = None,
        values: Optional[np.ndarray] = None,
        fees: Optional[np.ndarray] = None,
    ) -> None:
        senders = np.asarray(senders, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        if senders.ndim != 1 or receivers.ndim != 1:
            raise ValidationError("senders/receivers must be 1-D arrays")
        if len(senders) != len(receivers):
            raise ValidationError(
                f"length mismatch: {len(senders)} senders vs {len(receivers)} receivers"
            )
        if blocks is None:
            blocks = np.zeros(len(senders), dtype=np.int64)
        else:
            blocks = np.asarray(blocks, dtype=np.int64)
            if blocks.shape != senders.shape:
                raise ValidationError("blocks must match senders in shape")
        if values is not None:
            values = np.asarray(values, dtype=np.float64)
            if values.shape != senders.shape:
                raise ValidationError("values must match senders in shape")
            if not _finite_nonnegative(values):
                raise ValidationError(
                    "transaction values must be finite and >= 0"
                )
        if fees is not None:
            fees = np.asarray(fees, dtype=np.float64)
            if fees.shape != senders.shape:
                raise ValidationError("fees must match senders in shape")
            if not _finite_nonnegative(fees):
                raise ValidationError(
                    "transaction fees must be finite and >= 0"
                )
        if len(senders) and (senders.min() < 0 or receivers.min() < 0):
            raise ValidationError("account ids must be >= 0")
        self.senders = senders
        self.receivers = receivers
        self.blocks = blocks
        self.values = values
        self.fees = fees
        self._touched: Optional[np.ndarray] = None
        self._edges: Optional[EdgeTable] = None

    def __len__(self) -> int:
        return len(self.senders)

    def _value_at(self, index: int) -> float:
        return float(self.values[index]) if self.values is not None else 0.0

    def _fee_at(self, index: int) -> float:
        return float(self.fees[index]) if self.fees is not None else 0.0

    def __iter__(self) -> Iterator[Transaction]:
        for i in range(len(self)):
            yield Transaction(
                sender=int(self.senders[i]),
                receiver=int(self.receivers[i]),
                block=int(self.blocks[i]),
                value=self._value_at(i),
                fee=self._fee_at(i),
                tx_id=i,
            )

    def __getitem__(self, index: slice) -> "TransactionBatch":
        if not isinstance(index, slice):
            raise TypeError("use .at(i) for single transactions; indexing is by slice")
        return TransactionBatch(
            self.senders[index],
            self.receivers[index],
            self.blocks[index],
            self.values[index] if self.values is not None else None,
            self.fees[index] if self.fees is not None else None,
        )

    def at(self, index: int) -> Transaction:
        """Return the ``index``-th transaction as an object."""
        return Transaction(
            sender=int(self.senders[index]),
            receiver=int(self.receivers[index]),
            block=int(self.blocks[index]),
            value=self._value_at(index),
            fee=self._fee_at(index),
            tx_id=index,
        )

    def amounts(self, default: float = 0.0) -> np.ndarray:
        """Per-transfer amounts: the ``values`` column, or ``default``."""
        if self.values is not None:
            return self.values
        return np.full(len(self), default, dtype=np.float64)

    @classmethod
    def empty(cls) -> "TransactionBatch":
        """An empty batch."""
        zero = np.zeros(0, dtype=np.int64)
        return cls(zero, zero.copy(), zero.copy())

    @classmethod
    def from_transactions(cls, transactions: Sequence[Transaction]) -> "TransactionBatch":
        """Build a batch from transaction objects (test/example helper).

        The ``values`` column is always materialised so the executor
        sees exactly the objects' values — including explicit zeros —
        rather than falling back to a default amount. The ``fees``
        column is materialised only when some object carries a fee,
        keeping fee-free batches identical to their pre-fee layout.
        """
        if not transactions:
            return cls.empty()
        fees = np.array([t.fee for t in transactions], dtype=np.float64)
        return cls(
            np.array([t.sender for t in transactions], dtype=np.int64),
            np.array([t.receiver for t in transactions], dtype=np.int64),
            np.array([t.block for t in transactions], dtype=np.int64),
            np.array([t.value for t in transactions], dtype=np.float64),
            fees if fees.any() else None,
        )

    def select(self, mask: np.ndarray) -> "TransactionBatch":
        """Return the sub-batch where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.senders.shape:
            raise ValidationError("mask shape must match batch length")
        return TransactionBatch(
            self.senders[mask],
            self.receivers[mask],
            self.blocks[mask],
            self.values[mask] if self.values is not None else None,
            self.fees[mask] if self.fees is not None else None,
        )

    def concat(self, other: "TransactionBatch") -> "TransactionBatch":
        """Concatenate two batches (order preserved: self then other)."""
        return TransactionBatch.concat_many([self, other])

    @classmethod
    def concat_many(
        cls, batches: Sequence["TransactionBatch"]
    ) -> "TransactionBatch":
        """Concatenate many batches in one pass (order preserved).

        This is what trace-source materialisation uses, so assembling a
        trace from chunks stays O(total rows). Every non-empty input
        must carry the same optional columns: zero-filling a missing
        ``values`` column would turn its default-amount transfers into
        zero-amount ones, so mixed presence raises
        :class:`ValidationError`.
        """
        batches = [b for b in batches if len(b)]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        layouts = {(b.values is not None, b.fees is not None) for b in batches}
        if len(layouts) > 1:
            raise ValidationError(
                "cannot concatenate batches with different optional "
                "columns (values/fees present in some, absent in others)"
            )
        ((has_values, has_fees),) = layouts
        return cls(
            np.concatenate([b.senders for b in batches]),
            np.concatenate([b.receivers for b in batches]),
            np.concatenate([b.blocks for b in batches]),
            np.concatenate([b.values for b in batches]) if has_values else None,
            np.concatenate([b.fees for b in batches]) if has_fees else None,
        )

    def involving(self, account_id: int) -> "TransactionBatch":
        """Sub-batch of transactions touching ``account_id`` (a client's T_nu)."""
        mask = (self.senders == account_id) | (self.receivers == account_id)
        return self.select(mask)

    def touched_accounts(self) -> np.ndarray:
        """Sorted unique account ids appearing in this batch.

        Computed on the first call and returned read-only thereafter:
        placement and the allocator update both ask for it each epoch.
        """
        if self._touched is None:
            touched = unique_ids(np.concatenate([self.senders, self.receivers]))
            touched.flags.writeable = False
            self._touched = touched
        return self._touched

    def directed_edges(self) -> EdgeTable:
        """This batch's :func:`directed_edge_table`, memoised read-only.

        A batch is the mempool of one epoch and the committed batch of
        the next: ``Psi_e`` counts from the table and Pilot's history
        absorbs it, so the pairs are keyed once. Derived batches
        (``select``, slices, ``concat_many``) build their own.
        """
        if self._edges is None:
            self._edges = directed_edge_table(self)
            for column in self._edges:
                column.flags.writeable = False
        return self._edges

    def max_account_id(self) -> int:
        """Largest account id present, or -1 for an empty batch."""
        if len(self) == 0:
            return -1
        return int(max(self.senders.max(), self.receivers.max()))


def directed_edge_table(batch: TransactionBatch) -> EdgeTable:
    """Every transfer between two accounts in both orientations, counted
    per directed pair: int64 columns ``(owner, counterparty, count)``
    sorted by owner, then counterparty. Self-transfers touch one account
    and have no edge.

    Not memoised; :meth:`TransactionBatch.directed_edges` is.
    """
    not_self = batch.senders != batch.receivers
    senders, receivers = batch.senders[not_self], batch.receivers[not_self]
    if len(senders) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    span = int(max(senders.max(), receivers.max())) + 1
    if span > _MAX_EDGE_SPAN:
        raise ValidationError(
            f"account id {span - 1} is too large to key a directed edge "
            f"(max {_MAX_EDGE_SPAN - 1})"
        )
    keys, counts = np.unique(
        np.concatenate([senders * span + receivers, receivers * span + senders]),
        return_counts=True,
    )
    owners, others = np.divmod(keys, span)
    return owners, others, counts
