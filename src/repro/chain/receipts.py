"""Structure-of-arrays ledger of in-flight cross-shard receipts.

The relay/receipt protocol (see :mod:`repro.chain.crossshard`) holds
every withdraw-phase commitment until its deposit becomes due on the
target shard. :class:`ReceiptLedger` stores those commitments as
parallel numpy columns — sender, receiver, amount, source/target shard,
issued and due block — instead of a list of receipt objects, so issuing
and settling receipts are O(1)-amortised columnar appends and
sorted-prefix pops rather than per-object work. Readers take a
:class:`ReceiptBatch` of columns (:meth:`ReceiptLedger.view`); there is
no per-receipt object.

Settlement order is part of the observable contract: receipts leave the
ledger in ``(due_block, tx_id)`` order, pinned by a golden fixture, so
a rewrite of the executor cannot silently reorder credits.
"""

from __future__ import annotations

from typing import NamedTuple, Union

import numpy as np

from repro.errors import ValidationError

#: Column names, in canonical order.
COLUMNS = (
    "tx_ids",
    "senders",
    "receivers",
    "amounts",
    "source_shards",
    "target_shards",
    "issued_blocks",
    "due_blocks",
)

_INT_COLUMNS = tuple(c for c in COLUMNS if c != "amounts")


class ReceiptBatch(NamedTuple):
    """A columnar slice of receipts (parallel arrays, equal length)."""

    tx_ids: np.ndarray
    senders: np.ndarray
    receivers: np.ndarray
    amounts: np.ndarray
    source_shards: np.ndarray
    target_shards: np.ndarray
    issued_blocks: np.ndarray
    due_blocks: np.ndarray

    def __len__(self) -> int:
        return len(self.tx_ids)

    @classmethod
    def empty(cls) -> "ReceiptBatch":
        return cls(
            *(np.zeros(0, dtype=np.int64) for _ in _INT_COLUMNS[:3]),
            np.zeros(0, dtype=np.float64),
            *(np.zeros(0, dtype=np.int64) for _ in range(4)),
        )


class ReceiptLedger:
    """Pending receipts as growable parallel arrays with a due-block index.

    Appends are amortised O(1) (capacity doubling); the pending region
    is kept sorted by ``(due_block, tx_id)`` — appends in block order
    preserve sortedness for free, out-of-order issues mark the region
    dirty and it is re-sorted lazily before the next pop. ``pop_due``
    then removes a due prefix located with one ``searchsorted``.

    The in-flight value total is maintained incrementally at issue and
    settle time (and snapped to exactly zero whenever the ledger
    empties), so :meth:`total_amount` is O(1) instead of a recomputed
    ``sum`` over pending amounts.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        self._columns = {
            name: np.zeros(
                capacity, dtype=np.float64 if name == "amounts" else np.int64
            )
            for name in COLUMNS
        }
        self._start = 0
        self._stop = 0
        self._sorted = True
        self._total = 0.0

    def __len__(self) -> int:
        return self._stop - self._start

    @property
    def total_amount(self) -> float:
        """Value locked in pending receipts (running total)."""
        return self._total

    # -- mutation ---------------------------------------------------------------

    def append_batch(
        self,
        tx_ids: np.ndarray,
        senders: np.ndarray,
        receivers: np.ndarray,
        amounts: np.ndarray,
        source_shards: np.ndarray,
        target_shards: np.ndarray,
        issued_block: Union[int, np.ndarray],
        due_block: int,
    ) -> None:
        """Issue a batch of receipts sharing one due block.

        ``issued_block`` is a scalar on the ideal transport (receipts
        issued and appended in the same block) but may be a per-row
        array when a degraded network appends a delivered group —
        messages that left different blocks and landed together, whose
        shared due block is the *delivery* block.
        """
        count = len(tx_ids)
        if count == 0:
            return
        if len(amounts) and float(amounts.min()) < 0:
            raise ValidationError("receipt amounts must be >= 0")
        self._reserve(count)
        stop = self._stop
        new = slice(stop, stop + count)
        cols = self._columns
        cols["tx_ids"][new] = tx_ids
        cols["senders"][new] = senders
        cols["receivers"][new] = receivers
        cols["amounts"][new] = amounts
        cols["source_shards"][new] = source_shards
        cols["target_shards"][new] = target_shards
        cols["issued_blocks"][new] = issued_block
        cols["due_blocks"][new] = due_block
        if self._sorted:
            # The pending region stays sorted only if this append keeps
            # the (due_block, tx_id) order — within the batch (one
            # shared due block, so tx ids must ascend) and against the
            # current tail.
            if count > 1 and not bool((np.diff(tx_ids) > 0).all()):
                self._sorted = False
            elif stop > self._start:
                last_due = int(cols["due_blocks"][stop - 1])
                last_tx = int(cols["tx_ids"][stop - 1])
                if due_block < last_due or (
                    due_block == last_due and int(tx_ids[0]) < last_tx
                ):
                    self._sorted = False
        self._stop = stop + count
        self._total += float(amounts.sum())

    def pop_due(self, block: int) -> ReceiptBatch:
        """Remove and return every receipt with ``due_block <= block``.

        The result is in ``(due_block, tx_id)`` order — the pinned
        settlement order.
        """
        if len(self) == 0:
            return ReceiptBatch.empty()
        self._ensure_sorted()
        dues = self._columns["due_blocks"][self._start : self._stop]
        cut = self._start + int(np.searchsorted(dues, block, side="right"))
        if cut == self._start:
            return ReceiptBatch.empty()
        due = ReceiptBatch(
            *(self._columns[name][self._start : cut].copy() for name in COLUMNS)
        )
        self._start = cut
        if self._start == self._stop:
            # Ledger drained: reset the window and snap the running
            # total so float error cannot accumulate across epochs.
            self._start = self._stop = 0
            self._total = 0.0
            self._sorted = True
        else:
            self._total -= float(due.amounts.sum())
        return due

    # -- views ------------------------------------------------------------------

    def view(self) -> ReceiptBatch:
        """Pending receipts in ``(due_block, tx_id)`` order (copies)."""
        self._ensure_sorted()
        return ReceiptBatch(
            *(
                self._columns[name][self._start : self._stop].copy()
                for name in COLUMNS
            )
        )

    # -- internals ---------------------------------------------------------------

    def _reserve(self, count: int) -> None:
        capacity = len(self._columns["tx_ids"])
        size = len(self)
        if self._stop + count <= capacity:
            return
        if size + count <= capacity and self._start > 0:
            # Compact the live window to the front before growing.
            for name, column in self._columns.items():
                column[:size] = column[self._start : self._stop]
            self._start, self._stop = 0, size
            if self._stop + count <= capacity:
                return
        new_capacity = max(capacity * 2, size + count)
        for name, column in self._columns.items():
            grown = np.zeros(new_capacity, dtype=column.dtype)
            grown[:size] = column[self._start : self._stop]
            self._columns[name] = grown
        self._start, self._stop = 0, size

    def _ensure_sorted(self) -> None:
        if self._sorted:
            return
        live = slice(self._start, self._stop)
        order = np.lexsort(
            (self._columns["tx_ids"][live], self._columns["due_blocks"][live])
        )
        for name, column in self._columns.items():
            column[live] = column[live][order]
        self._sorted = True

