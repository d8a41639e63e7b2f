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
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.chain.account import AccountRegistry
from repro.chain.transaction import TransactionBatch
from repro.data.etl import ColumnArrays, RowColumns, _RowDecoder
from repro.data.trace import EpochView, Trace
from repro.errors import DataError, ValidationError

#: Default rows per decoded chunk (65,536 rows x 40 B ~ 2.6 MB of column
#: data at 5 columns).
DEFAULT_CHUNK_ROWS = 65_536

#: Most lines :class:`CsvTraceSource` decodes at once. A slice's Python
#: strings take over 20x the bytes of its decoded columns, so slices stay
#: a few thousand lines long and a chunk is assembled from many of them.
SLICE_LINES = 2_048


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

    The file is read in slices of at most :data:`SLICE_LINES` lines and
    each slice is decoded column by column: its lines are joined and
    split on commas into one flat cell list, each column is a stride
    slice of it, numbers convert with one ``map`` per column and are
    checked with numpy, and each new address string is normalised and
    registered once per :meth:`chunks` call. A line's terminator (LF,
    CRLF or a bare CR) stays on its last cell, which the column parses
    ignore like any padding. A slice takes this path only when
    ``csv.reader`` would read it exactly as ``str.split`` does — no
    ``"``, no NUL (which ``csv`` rejects before Python 3.11), no line
    as long as the ``csv`` field limit, and every line exactly as wide
    as the header — and every cell it keeps passes its check. Anything
    else (a quoted cell, a blank, short or long line, a bad or
    out-of-order cell) sends the slice through the per-row reference
    loop, :meth:`repro.data.etl._RowDecoder.decode_rows`, over a
    ``csv.reader`` that starts at the slice's first line and continues
    into the file, so a quoted cell spanning the slice end is read
    whole. The columnar path registers nothing until all its checks
    have passed, so a refused slice leaves the registry as the per-row
    loop expects it: both paths assign the same dense account ids and
    raise the same :class:`MalformedRowError`, on the same physical
    line (the last line of a record whose quoted cell spans lines).

    Decoded slices are assembled into chunks of ``chunk_rows`` rows. A
    slice never has more lines than the current chunk still lacks rows,
    so no more than one chunk of decoded rows is ever buffered —
    ``peak_buffer_rows`` records the high-water mark and is asserted
    ``<= chunk_rows`` in tests — and one slice of Python strings is the
    only other decode state, which keeps 1M-row (and beyond) ingest
    flat in memory.

    Streaming requires the file to be block-ordered (real ETL extracts
    are; our writer emits block order). An out-of-order row raises
    :class:`MalformedRowError` naming the line — for arbitrary-order
    files use the eager :func:`repro.data.etl.read_transactions_csv`,
    which sorts after decoding. Contract creations and self-transfers
    are skipped and malformed cells raise, exactly as in the eager
    reader, and every chunk carries the optional columns the header
    names (the column rule of :mod:`repro.data.etl`).

    ``decoder`` accepts only ``"python"``; any other value raises
    :class:`DataError`. It survives as a one-value argument only because
    ``benchmarks/e2e/e2e_bench.py`` passes it.
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
            decoder = _RowDecoder(
                self.path, next(reader, None), self.registry, ordered=True
            )
            ids: Dict[str, int] = {}
            line = reader.line_num  # physical lines consumed so far
            pieces: List[ColumnArrays] = []
            pending = 0
            while True:
                lines = list(
                    islice(handle, min(SLICE_LINES, self.chunk_rows - pending))
                )
                if not lines:
                    break
                piece = _decode_columnar(lines, decoder, ids)
                if piece is None:
                    rows: RowColumns = ([], [], [], [], [])
                    line += decoder.decode_rows(
                        csv.reader(chain(lines, handle)),
                        rows,
                        line_offset=line,
                        stop_line=len(lines),
                    )
                    piece = decoder.as_arrays(rows)
                else:
                    line += len(lines)
                if len(piece[0]):
                    pieces.append(piece)
                    pending += len(piece[0])
                if pending == self.chunk_rows:
                    yield self._flush(pieces, pending)
                    pieces, pending = [], 0
            if pending:
                yield self._flush(pieces, pending)

    def materialise(self) -> Trace:
        """Assemble every chunk; a file without a data row still gives
        the optional columns its header names, as
        :func:`~repro.data.etl.read_transactions_csv` does."""
        trace = super().materialise()
        if len(trace):
            return trace
        with self.path.open(newline="") as handle:
            header = next(csv.reader(handle), None)
        decoder = _RowDecoder(self.path, header, self.registry)
        return Trace(
            TransactionBatch(*decoder.as_arrays(([], [], [], [], []))),
            n_accounts=trace.n_accounts,
        )

    def _flush(self, pieces: List[ColumnArrays], rows: int) -> TransactionBatch:
        """One chunk from the decoded slices."""
        self.peak_buffer_rows = max(self.peak_buffer_rows, rows)
        if len(pieces) == 1:
            return TransactionBatch(*pieces[0])
        return TransactionBatch(
            *(
                None if column[0] is None else np.concatenate(column)
                for column in zip(*pieces)
            )
        )

    def resolved_n_accounts(self) -> Optional[int]:
        return len(self.registry) or None


def _amounts(cells: List[str]) -> np.ndarray:
    """Parse a value/fee column; ValueError unless every cell is a
    finite, non-negative float (the per-row rule, blank cells aside)."""
    column = np.fromiter(map(float, cells), np.float64, len(cells))
    if not ((column >= 0) & (column < np.inf)).all():
        raise ValueError("negative, NaN or infinite amount")
    return column


#: The characters a line of a ``newline=""`` file iterator can end in.
_EOL = ("\r", "\n")


def _first_seen(senders: List[str], receivers: List[str]) -> Dict[str, None]:
    """Address cells in first-seen order, each row's sender first."""
    interleaved: List[Optional[str]] = [None] * (2 * len(senders))
    interleaved[0::2] = senders
    interleaved[1::2] = receivers
    return dict.fromkeys(interleaved)


def _decode_columnar(
    lines: List[str], decoder: _RowDecoder, ids: Dict[str, int]
) -> Optional[ColumnArrays]:
    """Decode one slice of CSV lines column by column.

    Returns the slice's columns, or ``None`` when the slice must go
    through the per-row loop instead; nothing is registered then.
    ``ids`` maps each raw address cell seen so far in this ``chunks()``
    call to its account id, so normalising and registering happen once
    per distinct cell string.
    """
    n_lines = len(lines)
    n_columns = decoder.n_columns
    text = ",".join(lines)
    # csv reads quotes, reads NUL as an error before Python 3.11 and
    # rejects a cell over its field limit; str.split does none of that.
    if (
        '"' in text
        or "\0" in text
        or max(map(len, lines)) >= csv.field_size_limit()
    ):
        return None
    # Each line's terminator stays on its last cell, where int(),
    # float() and str.strip() ignore it as they ignore any padding.
    # The line ends then mark the cells where every line but the last
    # must end, so a cell count of exactly n_columns per line proves
    # the lines are n_columns wide one by one.
    cells = text.split(",")
    if len(cells) != n_lines * n_columns or not all(
        map(str.endswith, cells[n_columns - 1 : -1 : n_columns], repeat(_EOL))
    ):
        return None

    def column(index: Optional[int]) -> Optional[List[str]]:
        return None if index is None else cells[index::n_columns]

    senders = column(decoder.from_idx)
    receivers = column(decoder.to_idx)
    blocks = column(decoder.block_idx)
    values = column(decoder.value_idx)
    fees = column(decoder.fee_idx)
    seen = _first_seen(senders, receivers)
    fresh = seen.keys() - ids.keys()
    blank = {raw for raw in fresh if not raw.strip()}
    if blank:  # contract creations: the per-row loop skips them first
        keep = [
            sender not in blank and receiver not in blank
            for sender, receiver in zip(senders, receivers)
        ]
        senders, receivers, blocks, values, fees = (
            None if strings is None else list(compress(strings, keep))
            for strings in (senders, receivers, blocks, values, fees)
        )
        seen = _first_seen(senders, receivers)
        fresh -= blank
    n_rows = len(senders)
    try:
        block_column = np.fromiter(map(int, blocks), np.int64, n_rows)
        value_column = None if values is None else _amounts(values)
        fee_column = None if fees is None else _amounts(fees)
    except (ValueError, OverflowError):
        return None
    if n_rows and (
        block_column[0] < max(decoder.last_block, 0)
        or (block_column[1:] < block_column[:-1]).any()
    ):
        return None
    if fresh:
        new = list(filter(fresh.__contains__, seen))
        try:
            new_ids = decoder.registry.register_many([raw.strip() for raw in new])
        except ValidationError:
            return None
        ids.update(zip(new, new_ids))
    sender_ids = np.fromiter(map(ids.__getitem__, senders), np.int64, n_rows)
    receiver_ids = np.fromiter(map(ids.__getitem__, receivers), np.int64, n_rows)
    decoded: ColumnArrays = (
        sender_ids, receiver_ids, block_column, value_column, fee_column
    )
    transfers = sender_ids != receiver_ids
    if not transfers.all():  # self-transfers: registered, then skipped
        decoded = tuple(
            None if array is None else array[transfers] for array in decoded
        )
    if len(decoded[2]):
        decoder.last_block = int(decoded[2][-1])
    return decoded


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

