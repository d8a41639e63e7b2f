"""CSV ETL compatible with the ethereum-etl ``transactions`` schema.

The paper collects its dataset with Ethereum ETL. This module reads and
writes the subset of that CSV schema the evaluation needs, so a real
extract can be dropped into the same pipeline as the synthetic traces.

**Column rule.** An optional column is present in a decoded batch iff
the file's header names it, whatever its cells hold: a ``value`` column
becomes the batch's ``values`` (a replayed extract settles the volume
it recorded, zeros included), and a ``fee`` column — our documented
extension for traces generated with a fee model — becomes ``fees``.
Without a ``value`` column every transfer moves
:data:`~repro.chain.transaction.DEFAULT_TRANSFER_AMOUNT`. The writer
emits each optional column only for traces that carry it, so every
trace round-trips with the same columns.

Malformed rows raise :class:`~repro.errors.MalformedRowError` carrying
the file name and 1-based physical line number (``csv.reader.line_num``,
the last line of a record whose quoted cell spans lines), so one bad
row in a huge extract is findable without re-running the decode.

The per-row decode defined here (:class:`_RowDecoder` and its
:meth:`~_RowDecoder.decode_rows` loop) is the reference semantics. The
eager :func:`read_transactions_csv` runs it over the whole file. The
chunked decoder :class:`~repro.data.source.CsvTraceSource` decodes
plain slices of a few thousand lines column by column instead, and
hands any slice whose text ``csv`` might parse differently from
``str.split`` (or whose cells fail a check) back to the same loop, so
both readers accept the same files, assign the same account ids and
raise the same :class:`~repro.errors.MalformedRowError`.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Any, List, Optional, Tuple, Union

import numpy as np

from repro.chain.account import AccountRegistry, address_from_id
from repro.chain.transaction import TransactionBatch
from repro.data.trace import Trace
from repro.errors import DataError, MalformedRowError, ValidationError

#: Columns every written file carries, a subset of ethereum-etl's
#: transactions.csv.
ETL_COLUMNS = ("hash", "block_number", "from_address", "to_address")

#: Optional per-transfer value column (ethereum-etl's ``value``).
VALUE_COLUMN = "value"

#: Optional per-transfer fee column (our extension; absent from real
#: ethereum-etl extracts).
FEE_COLUMN = "fee"


#: Column lists the per-row loop appends to: senders, receivers,
#: blocks, values, fees (the last two stay empty when the header lacks
#: the column).
RowColumns = Tuple[List[int], List[int], List[int], List[float], List[float]]

#: Decoded columns as arrays: senders, receivers, blocks, values and
#: fees (``None`` for an optional column the header lacks).
ColumnArrays = Tuple[
    np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]
]

#: First block number an int64 column cannot hold.
_BLOCK_LIMIT = 1 << 63


class _RowDecoder:
    """Shared per-row decode for the eager reader and the chunked source.

    Resolves the header once, then turns each raw CSV row into an
    ``(sender, receiver, block, value, fee)`` tuple — or ``None`` for
    rows the paper's account-graph construction skips (contract
    creations, self-transfers). ``has_values``/``has_fees`` say which
    optional columns the header names (the module's column rule); an
    absent column decodes as 0.0. Bad cells, addresses included, raise
    :class:`MalformedRowError` with the file and 1-based line number.

    An ``ordered`` decoder also rejects a kept row whose block is below
    ``last_block`` (the block of the last kept row), which is what a
    streamed decode needs.
    """

    def __init__(
        self,
        path: Path,
        fieldnames: Optional[List[str]],
        registry: AccountRegistry,
        ordered: bool = False,
    ) -> None:
        if fieldnames is None:
            raise DataError(f"{path} is empty")
        missing = {"block_number", "from_address", "to_address"} - set(fieldnames)
        if missing:
            raise DataError(f"{path} is missing columns: {sorted(missing)}")
        self.path = path
        self.registry = registry
        self.ordered = ordered
        self.last_block = -1
        self.n_columns = len(fieldnames)
        self.block_idx = fieldnames.index("block_number")
        self.from_idx = fieldnames.index("from_address")
        self.to_idx = fieldnames.index("to_address")
        self.value_idx = (
            fieldnames.index(VALUE_COLUMN) if VALUE_COLUMN in fieldnames else None
        )
        self.fee_idx = (
            fieldnames.index(FEE_COLUMN) if FEE_COLUMN in fieldnames else None
        )
        self._width = max(
            idx
            for idx in (
                self.block_idx,
                self.from_idx,
                self.to_idx,
                self.value_idx,
                self.fee_idx,
            )
            if idx is not None
        ) + 1

    @property
    def has_values(self) -> bool:
        return self.value_idx is not None

    @property
    def has_fees(self) -> bool:
        return self.fee_idx is not None

    def decode(
        self, line: int, row: List[str]
    ) -> Optional[Tuple[int, int, int, float, float]]:
        if not row:
            return None  # blank line (csv.DictReader skipped these too)
        if len(row) < self._width:
            raise MalformedRowError(
                self.path, line, f"expected >= {self._width} columns, got {len(row)}"
            )
        from_address = row[self.from_idx].strip()
        to_address = row[self.to_idx].strip()
        if not from_address or not to_address:
            return None  # contract creation / malformed endpoint
        raw_block = row[self.block_idx]
        try:
            block = int(raw_block)
        except (TypeError, ValueError):
            raise MalformedRowError(
                self.path, line, f"bad block_number {raw_block!r}"
            ) from None
        if block < 0:
            raise MalformedRowError(
                self.path, line, f"negative block_number {block}"
            )
        if block >= _BLOCK_LIMIT:
            raise MalformedRowError(
                self.path, line, f"block_number {block} out of range"
            )
        value = 0.0
        if self.value_idx is not None:
            raw_value = row[self.value_idx].strip()
            if raw_value:
                try:
                    value = float(raw_value)
                except ValueError:
                    raise MalformedRowError(
                        self.path, line, f"bad value {raw_value!r}"
                    ) from None
                if not 0 <= value < math.inf:  # negative, NaN or infinite
                    raise MalformedRowError(
                        self.path, line, f"bad value {raw_value!r}"
                    )
        fee = 0.0
        if self.fee_idx is not None:
            raw_fee = row[self.fee_idx].strip()
            if raw_fee:
                try:
                    fee = float(raw_fee)
                except ValueError:
                    raise MalformedRowError(
                        self.path, line, f"bad fee {raw_fee!r}"
                    ) from None
                if not 0 <= fee < math.inf:
                    raise MalformedRowError(self.path, line, f"bad fee {raw_fee!r}")
        try:
            sender = self.registry.register(from_address)
        except ValidationError as exc:
            raise MalformedRowError(
                self.path, line, f"bad from_address: {exc}"
            ) from None
        try:
            receiver = self.registry.register(to_address)
        except ValidationError as exc:
            raise MalformedRowError(
                self.path, line, f"bad to_address: {exc}"
            ) from None
        if sender == receiver:
            return None  # self-transfers carry no allocation signal
        return sender, receiver, block, value, fee

    def as_arrays(self, columns: RowColumns) -> ColumnArrays:
        """The per-row loop's column lists as arrays."""
        senders, receivers, blocks, values, fees = columns
        return (
            np.asarray(senders, dtype=np.int64),
            np.asarray(receivers, dtype=np.int64),
            np.asarray(blocks, dtype=np.int64),
            np.asarray(values, dtype=np.float64) if self.has_values else None,
            np.asarray(fees, dtype=np.float64) if self.has_fees else None,
        )

    def decode_rows(
        self,
        reader: Any,
        columns: RowColumns,
        line_offset: int = 0,
        stop_line: Optional[int] = None,
    ) -> int:
        """Decode a ``csv.reader``'s rows into ``columns``; return its
        line count.

        Row lines are ``line_offset + reader.line_num``. With
        ``stop_line`` the loop returns after the record that reaches
        that reader line, so a quoted cell spanning past it is still
        read whole.
        """
        senders, receivers, blocks, values, fees = columns
        has_values = self.has_values
        has_fees = self.has_fees
        for row in reader:
            line = line_offset + reader.line_num
            decoded = self.decode(line, row)
            if decoded is not None:
                sender, receiver, block, value, fee = decoded
                if self.ordered:
                    if block < self.last_block:
                        raise MalformedRowError(
                            self.path,
                            line,
                            f"block {block} out of order after {self.last_block} "
                            "(streamed decode requires block-ordered rows; "
                            "use read_transactions_csv for unsorted files)",
                        )
                    self.last_block = block
                senders.append(sender)
                receivers.append(receiver)
                blocks.append(block)
                if has_values:
                    values.append(value)
                if has_fees:
                    fees.append(fee)
            if stop_line is not None and reader.line_num >= stop_line:
                break
        return reader.line_num


def write_transactions_csv(
    path: Union[str, Path],
    trace: Trace,
    registry: Optional[AccountRegistry] = None,
) -> int:
    """Write ``trace`` as an ethereum-etl style CSV; return rows written.

    When no registry is supplied, deterministic synthetic addresses are
    derived from the integer ids. ``value`` and ``fee`` columns are
    written only for traces that carry them (see the module's column
    rule).
    """
    path = Path(path)
    batch = trace.batch

    def to_address(account_id: int) -> str:
        if registry is not None:
            return registry.address_of(account_id)
        return address_from_id(account_id)

    optional = [
        (name, column)
        for name, column in ((VALUE_COLUMN, batch.values), (FEE_COLUMN, batch.fees))
        if column is not None
    ]
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(ETL_COLUMNS + tuple(name for name, _ in optional))
        for i in range(len(batch)):
            row = [
                f"0x{i:064x}",
                int(batch.blocks[i]),
                to_address(int(batch.senders[i])),
                to_address(int(batch.receivers[i])),
            ]
            row.extend(float(column[i]) for _, column in optional)
            writer.writerow(row)
    return len(batch)


def read_transactions_csv(
    path: Union[str, Path],
    registry: Optional[AccountRegistry] = None,
) -> Tuple[Trace, AccountRegistry]:
    """Read an ethereum-etl style CSV into a :class:`Trace` (eager).

    Unknown addresses are registered on the fly; rows with an empty
    ``to_address`` (contract creations) are skipped, as in the paper's
    account-graph construction. Rows may appear in any block order —
    the whole file is decoded, then stable-sorted by block. For
    bounded-memory ingest of large block-ordered extracts use
    :class:`repro.data.source.CsvTraceSource` instead; this reader is
    its test oracle.
    """
    path = Path(path)
    if registry is None:
        registry = AccountRegistry()

    columns: RowColumns = ([], [], [], [], [])
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        decoder = _RowDecoder(path, next(reader, None), registry)
        decoder.decode_rows(reader, columns)

    arrays = decoder.as_arrays(columns)
    order = np.argsort(arrays[2], kind="stable")
    batch = TransactionBatch(
        *(None if array is None else array[order] for array in arrays)
    )
    return Trace(batch, n_accounts=len(registry)), registry
