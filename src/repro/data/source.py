"""Trace sources: chunked, bounded-memory trace ingest.

A :class:`TraceSource` is where transactions come *from* — an ETL CSV
on disk or an already-materialised trace (a
generated trace is replayed through :class:`MaterialisedTraceSource`).
It yields block-ordered :class:`TransactionBatch` chunks of bounded
size, with ``values``/``fees`` columns carried through, so the data
layer can feed the engine without ever holding more than a chunk of
decoded Python state at a time:

* :meth:`TraceSource.materialise` assembles the chunks into a
  :class:`Trace` in one concatenation pass — the compatibility bridge
  that keeps every existing ``Trace`` caller working;
* :class:`EpochStream` slices a chunk stream into the *same*
  :class:`EpochView` sequence ``Trace.epochs`` produces, buffering only
  the current epoch plus one chunk (equivalence under randomized chunk
  sizes is property-tested in ``tests/test_data_source.py``).

Sources track ``peak_buffer_rows`` — the high-water mark of buffered
decoded rows — which is what the streamed-ingest memory bound asserts:
peak buffering is proportional to ``chunk_rows``, never to the trace.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.chain.account import AccountRegistry
from repro.chain.transaction import TransactionBatch
from repro.data.etl import _RowDecoder
from repro.data.trace import EpochView, Trace
from repro.errors import DataError, MalformedRowError

#: Default rows per decoded chunk (~1.5 MB of column data at 5 columns).
DEFAULT_CHUNK_ROWS = 65_536


class TraceSource:
    """Base contract: block-ordered chunked access to a transaction trace.

    Subclasses implement :meth:`chunks` (yield block-ordered
    :class:`TransactionBatch` chunks) and :meth:`resolved_n_accounts`
    (the account-universe size, which a streaming decoder only knows
    once its registry has seen every row — hence *after* the chunks
    were consumed).
    """

    #: Display name (trace-spec label / error messages).
    name: str = "source"
    #: High-water mark of decoded rows buffered at once (set by chunks()).
    peak_buffer_rows: int = 0

    def chunks(self) -> Iterator[TransactionBatch]:
        raise NotImplementedError

    def resolved_n_accounts(self) -> Optional[int]:
        """Universe size; valid after :meth:`chunks` was consumed."""
        return None

    def size_hint(self) -> Optional[Tuple[int, int]]:
        """``(total_rows, n_accounts)`` when known *up front*, else None.

        The count-prefixed fast path: sources that already know their
        length (a materialised trace) return it here so the streaming
        engine can skip its sizing pass; a CSV decoder only learns both
        after a full read and returns None.
        """
        return None

    def materialise(self) -> Trace:
        """Assemble every chunk into a materialised :class:`Trace`."""
        batches = list(self.chunks())
        return Trace(
            TransactionBatch.concat_many(batches),
            n_accounts=self.resolved_n_accounts(),
        )


class MaterialisedTraceSource(TraceSource):
    """A source view over an already-materialised :class:`Trace`.

    Chunking an in-memory trace costs nothing (chunks are numpy views),
    so anything that accepts a source accepts a trace through this
    wrapper — :class:`~repro.sim.engine.Simulation` applies it to every
    :class:`Trace` it is given.
    """

    def __init__(
        self, trace: Trace, chunk_rows: int = DEFAULT_CHUNK_ROWS
    ) -> None:
        if chunk_rows < 1:
            raise DataError(f"chunk_rows must be >= 1, got {chunk_rows}")
        self.trace = trace
        self.chunk_rows = int(chunk_rows)
        self.name = "materialised"

    def chunks(self) -> Iterator[TransactionBatch]:
        batch = self.trace.batch
        self.peak_buffer_rows = min(len(batch), self.chunk_rows)
        for start in range(0, len(batch), self.chunk_rows):
            yield batch[start : start + self.chunk_rows]

    def resolved_n_accounts(self) -> Optional[int]:
        return self.trace.n_accounts

    def size_hint(self) -> Optional[Tuple[int, int]]:
        return len(self.trace), self.trace.n_accounts

    def materialise(self) -> Trace:
        return self.trace


class CsvTraceSource(TraceSource):
    """Chunked, bounded-memory decode of an ethereum-etl CSV.

    Rows decode straight into numpy chunks of ``chunk_rows``; at no
    point does the decoder hold more than one chunk of Python-object
    row state, which is what keeps 1M-row (and beyond) ingest flat in
    memory — ``peak_buffer_rows`` records the high-water mark and is
    asserted ``<= chunk_rows`` in tests.

    Streaming requires the file to be block-ordered (real ETL extracts
    are; our writer emits block order). An out-of-order row raises
    :class:`MalformedRowError` naming the line — for arbitrary-order
    files use the eager :func:`repro.data.etl.read_transactions_csv`,
    which sorts after decoding. Contract creations and self-transfers
    are skipped and malformed cells raise, exactly as in the eager
    reader, so both paths see the same rows and assign the same dense
    account ids, and every chunk carries the optional columns the
    header names (the column rule of :mod:`repro.data.etl`).
    ``csv.reader.line_num`` names the physical line of each row (the
    last line of a record whose quoted cell spans lines).

    ``decoder`` accepts only ``"python"`` (the :class:`_RowDecoder`
    loop); any other value raises :class:`DataError`. It survives as a
    one-value argument only because ``benchmarks/e2e/e2e_bench.py``
    passes it.
    """

    def __init__(
        self,
        path: Union[str, Path],
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        registry: Optional[AccountRegistry] = None,
        decoder: str = "python",
    ) -> None:
        if chunk_rows < 1:
            raise DataError(f"chunk_rows must be >= 1, got {chunk_rows}")
        if decoder != "python":
            raise DataError(
                f"decoder must be 'python' (the only CSV decoder), "
                f"got {decoder!r}"
            )
        self.path = Path(path)
        self.chunk_rows = int(chunk_rows)
        self.registry = registry if registry is not None else AccountRegistry()
        self.name = self.path.name
        self.peak_buffer_rows = 0

    def chunks(self) -> Iterator[TransactionBatch]:
        with self.path.open(newline="") as handle:
            reader = csv.reader(handle)
            decoder = _RowDecoder(self.path, next(reader, None), self.registry)
            has_values = decoder.has_values
            has_fees = decoder.has_fees
            chunk_rows = self.chunk_rows
            senders: List[int] = []
            receivers: List[int] = []
            blocks: List[int] = []
            values: List[float] = []
            fees: List[float] = []
            last_block = -1
            for row in reader:
                line = reader.line_num
                decoded = decoder.decode(line, row)
                if decoded is None:
                    continue
                sender, receiver, block, value, fee = decoded
                if block < last_block:
                    raise MalformedRowError(
                        self.path,
                        line,
                        f"block {block} out of order after {last_block} "
                        "(streamed decode requires block-ordered rows; "
                        "use read_transactions_csv for unsorted files)",
                    )
                last_block = block
                senders.append(sender)
                receivers.append(receiver)
                blocks.append(block)
                if has_values:
                    values.append(value)
                if has_fees:
                    fees.append(fee)
                if len(senders) == chunk_rows:
                    yield self._flush(senders, receivers, blocks, values, fees)
            if senders:
                yield self._flush(senders, receivers, blocks, values, fees)

    def _flush(
        self,
        senders: List[int],
        receivers: List[int],
        blocks: List[int],
        values: List[float],
        fees: List[float],
    ) -> TransactionBatch:
        """One chunk from the decoded row lists, which are left empty.

        ``values``/``fees`` become columns when the file has them (the
        lists are empty otherwise). Clearing the lists keeps no row
        state alive while the consumer and the next decode run.
        """
        self.peak_buffer_rows = max(self.peak_buffer_rows, len(senders))
        batch = TransactionBatch(
            np.asarray(senders, dtype=np.int64),
            np.asarray(receivers, dtype=np.int64),
            np.asarray(blocks, dtype=np.int64),
            np.asarray(values, dtype=np.float64) if values else None,
            np.asarray(fees, dtype=np.float64) if fees else None,
        )
        for column in (senders, receivers, blocks, values, fees):
            column.clear()
        return batch

    def resolved_n_accounts(self) -> Optional[int]:
        return len(self.registry) or None


class EpochStream:
    """Slice a block-ordered chunk stream into ``tau``-block epochs.

    ``chunks`` is any iterable of :class:`TransactionBatch` chunks — a
    source's :meth:`TraceSource.chunks`, or the remainder of one the
    engine has already taken its history prefix from. Yields the exact
    :class:`EpochView` sequence ``Trace.epochs(tau, max_epochs)``
    yields for the materialised trace — same indices, block spans, and
    batch contents, including the empty views for block-range gaps —
    while holding at most the current epoch plus one chunk
    (``peak_buffer_rows`` records the high-water mark; the equivalence
    and the bound are pinned in ``tests/test_data_source.py``).
    """

    def __init__(
        self,
        chunks: Iterable[TransactionBatch],
        tau: int,
        max_epochs: Optional[int] = None,
    ) -> None:
        if tau < 1:
            raise DataError(f"tau must be >= 1, got {tau}")
        if max_epochs is not None and max_epochs < 1:
            raise DataError(f"max_epochs must be >= 1, got {max_epochs}")
        self.chunks = chunks
        self.tau = int(tau)
        self.max_epochs = max_epochs
        self.peak_buffer_rows = 0

    def __iter__(self) -> Iterator[EpochView]:
        tau = self.tau
        pending: List[TransactionBatch] = []
        pending_rows = 0
        epoch_start: Optional[int] = None
        index = 0

        def emit_ready(
            final: bool,
        ) -> Iterator[EpochView]:
            """Yield every epoch the buffer fully covers (all, at EOF)."""
            nonlocal pending, pending_rows, epoch_start, index
            if epoch_start is None:
                return
            buffered = TransactionBatch.concat_many(pending)
            last_seen = int(buffered.blocks[-1]) if len(buffered) else epoch_start
            lo = 0
            while (
                epoch_start + tau <= last_seen if not final else epoch_start <= last_seen
            ):
                if self.max_epochs is not None and index >= self.max_epochs:
                    pending = []
                    pending_rows = 0
                    return
                epoch_end = epoch_start + tau
                hi = int(
                    np.searchsorted(buffered.blocks, epoch_end, side="left")
                )
                yield EpochView(
                    index=index,
                    first_block=epoch_start,
                    last_block=epoch_end - 1,
                    batch=buffered[lo:hi],
                )
                lo = hi
                epoch_start = epoch_end
                index += 1
            remainder = buffered[lo:]
            pending = [remainder] if len(remainder) else []
            pending_rows = len(remainder)

        for chunk in self.chunks:
            if len(chunk) == 0:
                continue
            if epoch_start is None:
                epoch_start = int(chunk.blocks[0])
            pending.append(chunk)
            pending_rows += len(chunk)
            self.peak_buffer_rows = max(self.peak_buffer_rows, pending_rows)
            # Only re-assemble the buffer when this chunk completed an
            # epoch — a huge epoch spanning many chunks accumulates
            # views instead of re-concatenating per chunk.
            if int(chunk.blocks[-1]) >= epoch_start + tau:
                yield from emit_ready(final=False)
            if self.max_epochs is not None and index >= self.max_epochs:
                # Stop pulling chunks (and decoding rows) the moment
                # the epoch budget is spent — Trace.epochs stops here
                # too, and a bounded-ingest source must not pay for
                # rows nobody will see.
                return
        yield from emit_ready(final=True)

