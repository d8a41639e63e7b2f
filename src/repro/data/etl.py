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
row in a huge extract is findable without re-running the decode. The
chunked, bounded-memory decoder :class:`~repro.data.source.CsvTraceSource`
shares the row parsing defined here.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import List, Optional, Tuple, Union

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


class _RowDecoder:
    """Shared per-row decode for the eager reader and the chunked source.

    Resolves the header once, then turns each raw CSV row into an
    ``(sender, receiver, block, value, fee)`` tuple — or ``None`` for
    rows the paper's account-graph construction skips (contract
    creations, self-transfers). ``has_values``/``has_fees`` say which
    optional columns the header names (the module's column rule); an
    absent column decodes as 0.0. Bad cells, addresses included, raise
    :class:`MalformedRowError` with the file and 1-based line number.
    """

    def __init__(
        self,
        path: Path,
        fieldnames: Optional[List[str]],
        registry: AccountRegistry,
    ) -> None:
        if fieldnames is None:
            raise DataError(f"{path} is empty")
        missing = {"block_number", "from_address", "to_address"} - set(fieldnames)
        if missing:
            raise DataError(f"{path} is missing columns: {sorted(missing)}")
        self.path = path
        self.registry = registry
        self._block_idx = fieldnames.index("block_number")
        self._from_idx = fieldnames.index("from_address")
        self._to_idx = fieldnames.index("to_address")
        self._value_idx = (
            fieldnames.index(VALUE_COLUMN) if VALUE_COLUMN in fieldnames else None
        )
        self._fee_idx = (
            fieldnames.index(FEE_COLUMN) if FEE_COLUMN in fieldnames else None
        )
        self._width = max(
            idx
            for idx in (
                self._block_idx,
                self._from_idx,
                self._to_idx,
                self._value_idx,
                self._fee_idx,
            )
            if idx is not None
        ) + 1

    @property
    def has_values(self) -> bool:
        return self._value_idx is not None

    @property
    def has_fees(self) -> bool:
        return self._fee_idx is not None

    def decode(
        self, line: int, row: List[str]
    ) -> Optional[Tuple[int, int, int, float, float]]:
        if not row:
            return None  # blank line (csv.DictReader skipped these too)
        if len(row) < self._width:
            raise MalformedRowError(
                self.path, line, f"expected >= {self._width} columns, got {len(row)}"
            )
        from_address = row[self._from_idx].strip()
        to_address = row[self._to_idx].strip()
        if not from_address or not to_address:
            return None  # contract creation / malformed endpoint
        raw_block = row[self._block_idx]
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
        value = 0.0
        if self._value_idx is not None:
            raw_value = row[self._value_idx].strip()
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
        if self._fee_idx is not None:
            raw_fee = row[self._fee_idx].strip()
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

    senders: List[int] = []
    receivers: List[int] = []
    blocks: List[int] = []
    values: List[float] = []
    fees: List[float] = []

    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        fieldnames = next(reader, None)
        decoder = _RowDecoder(path, fieldnames, registry)
        has_values = decoder.has_values
        has_fees = decoder.has_fees
        for row in reader:
            decoded = decoder.decode(reader.line_num, row)
            if decoded is None:
                continue
            sender, receiver, block, value, fee = decoded
            senders.append(sender)
            receivers.append(receiver)
            blocks.append(block)
            if has_values:
                values.append(value)
            if has_fees:
                fees.append(fee)

    order = np.argsort(np.asarray(blocks, dtype=np.int64), kind="stable")
    batch = TransactionBatch(
        np.asarray(senders, dtype=np.int64)[order],
        np.asarray(receivers, dtype=np.int64)[order],
        np.asarray(blocks, dtype=np.int64)[order],
        np.asarray(values, dtype=np.float64)[order] if has_values else None,
        np.asarray(fees, dtype=np.float64)[order] if has_fees else None,
    )
    return Trace(batch, n_accounts=len(registry)), registry
