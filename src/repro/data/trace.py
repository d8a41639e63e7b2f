"""Trace containers and epoch slicing.

A :class:`Trace` is a block-ordered :class:`TransactionBatch` plus the
account universe size. It provides the two operations the evaluation
protocol needs (Section V-A):

* ``split(0.9)`` — first 90% for initial allocation, last 10% held out;
* ``epochs(tau)`` — slice the evaluation segment into ``tau``-block
  epochs, yielding :class:`EpochView` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.chain.transaction import TransactionBatch
from repro.errors import DataError
from repro.util.validation import check_in_range


@dataclass(frozen=True)
class EpochView:
    """One epoch's slice of a trace."""

    index: int
    first_block: int
    last_block: int
    batch: TransactionBatch

    def __len__(self) -> int:
        return len(self.batch)


class Trace:
    """An ordered transaction trace over a dense account universe."""

    def __init__(self, batch: TransactionBatch, n_accounts: Optional[int] = None) -> None:
        if len(batch) > 1 and np.any(np.diff(batch.blocks) < 0):
            raise DataError("trace blocks must be non-decreasing")
        max_id = batch.max_account_id()
        if n_accounts is None:
            n_accounts = max_id + 1
        if n_accounts <= max_id:
            raise DataError(
                f"n_accounts={n_accounts} but trace references account {max_id}"
            )
        self.batch = batch
        self.n_accounts = int(n_accounts)

    def __len__(self) -> int:
        return len(self.batch)

    @property
    def first_block(self) -> int:
        """Block number of the first transaction (0 when empty)."""
        return int(self.batch.blocks[0]) if len(self.batch) else 0

    @property
    def last_block(self) -> int:
        """Block number of the last transaction (-1 when empty)."""
        return int(self.batch.blocks[-1]) if len(self.batch) else -1

    def split(self, fraction: float) -> Tuple["Trace", "Trace"]:
        """Split into (head, tail) by transaction count fraction.

        The split point is adjusted to the next block boundary so no
        block's transactions straddle the two segments.
        """
        check_in_range("fraction", fraction, 0.0, 1.0)
        n = len(self.batch)
        if n == 0:
            return self, Trace(TransactionBatch.empty(), self.n_accounts)
        cut = int(round(n * fraction))
        cut = max(0, min(n, cut))
        # Move the cut forward to a block boundary.
        if 0 < cut < n:
            boundary_block = int(self.batch.blocks[cut - 1])
            while cut < n and int(self.batch.blocks[cut]) == boundary_block:
                cut += 1
        head = Trace(self.batch[:cut], self.n_accounts)
        tail = Trace(self.batch[cut:], self.n_accounts)
        return head, tail

    def split_epochs(self, tau: int, n_epochs: int) -> Tuple["Trace", "Trace"]:
        """Split into (head, tail) at an absolute epoch count.

        The head is the block-sorted prefix covering the first
        ``n_epochs`` ``tau``-block epochs — every row with
        ``block < first_block + n_epochs * tau`` — and the tail is the
        rest. Unlike :meth:`split` this needs no total row count, which
        is what lets the streaming engine place the same history split
        without materialising the trace; ``n_epochs=0`` yields an empty
        head.
        """
        if tau < 1:
            raise DataError(f"tau must be >= 1, got {tau}")
        if n_epochs < 0:
            raise DataError(f"n_epochs must be >= 0, got {n_epochs}")
        n = len(self.batch)
        if n == 0:
            return self, Trace(TransactionBatch.empty(), self.n_accounts)
        boundary = int(self.batch.blocks[0]) + n_epochs * tau
        cut = int(np.searchsorted(self.batch.blocks, boundary, side="left"))
        head = Trace(self.batch[:cut], self.n_accounts)
        tail = Trace(self.batch[cut:], self.n_accounts)
        return head, tail

    def epochs(self, tau: int, max_epochs: Optional[int] = None) -> Iterator[EpochView]:
        """Yield consecutive ``tau``-block epochs of this trace."""
        if tau < 1:
            raise DataError(f"tau must be >= 1, got {tau}")
        if len(self.batch) == 0:
            return
        blocks = self.batch.blocks
        start_block = int(blocks[0])
        end_block = int(blocks[-1])
        index = 0
        lo = 0
        epoch_start = start_block
        while epoch_start <= end_block:
            if max_epochs is not None and index >= max_epochs:
                return
            epoch_end = epoch_start + tau  # exclusive
            hi = int(np.searchsorted(blocks, epoch_end, side="left"))
            yield EpochView(
                index=index,
                first_block=epoch_start,
                last_block=epoch_end - 1,
                batch=self.batch[lo:hi],
            )
            lo = hi
            epoch_start = epoch_end
            index += 1

    def epoch_list(self, tau: int, max_epochs: Optional[int] = None) -> List[EpochView]:
        """Materialise :meth:`epochs` into a list."""
        return list(self.epochs(tau, max_epochs))

    def active_accounts(self) -> np.ndarray:
        """Sorted ids of accounts appearing at least once."""
        return self.batch.touched_accounts()
