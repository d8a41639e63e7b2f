"""Height-indexed on-disk segments for the beacon's committed log.

The in-memory beacon keeps every committed batch for the whole run, so
its footprint grows with the run's committed migrations rather than
with the epoch window. :class:`SegmentedCommitLog` spills
committed :class:`~repro.chain.migration.MigrationRequestBatch` rows to
append-only columnar segment files and keeps only a height -> record
index in memory, so ``iter_batches(height)`` reads exactly the height
window a caller asks for.

Segment format (version 1, little-endian, byte-stable — identical
appends produce identical bytes):

* file header: magic ``MRSG`` + ``u32`` version;
* one record per committed batch:
  ``u64 height | u64 epoch | u64 n_rows`` followed by the four row
  columns (``accounts``/``from_shards``/``to_shards`` as ``int64``,
  ``gains`` as ``float64``, each ``n_rows`` long) and a ``u32`` CRC-32
  over the record's header+column bytes.

The length-prefixed layout makes a crash mid-append detectable: a
truncated tail (or a CRC mismatch) raises the typed
:class:`~repro.errors.SegmentIntegrityError` on open, naming the file
and the last intact byte offset; reopening with ``recover=True``
truncates the partial record and the log resumes appending after it.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.chain.migration import MigrationRequestBatch
from repro.errors import SegmentIntegrityError, ValidationError

#: File header: magic + format version.
_MAGIC = b"MRSG"
_VERSION = 1
_FILE_HEADER = struct.Struct("<4sI")
#: Per-record header: height, epoch, row count.
_RECORD_HEADER = struct.Struct("<QQQ")
_CRC = struct.Struct("<I")
#: Bytes per row across the four columns (3 x int64 + 1 x float64).
_ROW_BYTES = 32
#: Row counts beyond this are treated as corruption, not allocation
#: requests (a single segment never holds 2^40 rows).
_MAX_RECORD_ROWS = 1 << 40

#: Default rows per segment before rotating to a new file.
DEFAULT_SEGMENT_ROWS = 262_144

_SEGMENT_GLOB = "seg-*.mrlog"


def _segment_name(sequence: int) -> str:
    return f"seg-{sequence:06d}.mrlog"


class _Record:
    """Index entry for one on-disk record."""

    __slots__ = ("height", "epoch", "rows", "segment", "offset")

    def __init__(
        self, height: int, epoch: int, rows: int, segment: int, offset: int
    ) -> None:
        self.height = height
        self.epoch = epoch
        self.rows = rows
        self.segment = segment
        self.offset = offset


class SegmentedCommitLog:
    """Append-only, height-indexed segment store for committed batches.

    ``directory`` is created if missing; an existing directory is
    scanned and validated on open, rebuilding the in-memory height
    index from the segment files (which is how a restarted process
    resumes an earlier log). ``segment_rows`` bounds rows per segment
    file before rotation. ``recover=True`` repairs a crash-truncated
    tail by dropping the partial record instead of raising.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
        recover: bool = False,
    ) -> None:
        if segment_rows < 1:
            raise ValidationError(
                f"segment_rows must be >= 1, got {segment_rows}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_rows = int(segment_rows)
        self._paths: List[Path] = sorted(self.directory.glob(_SEGMENT_GLOB))
        self._records: List[_Record] = []
        #: Rows currently in the tail segment (rotation accounting).
        self._tail_rows = 0
        self._append_handle = None
        self._scan(recover=recover)

    # -- open/scan ----------------------------------------------------------

    def _scan(self, recover: bool) -> None:
        for position, path in enumerate(self._paths):
            is_last = position == len(self._paths) - 1
            segment_rows = self._scan_segment(
                path, position, repair=recover and is_last
            )
            if is_last:
                self._tail_rows = segment_rows

    def _scan_segment(self, path: Path, segment: int, repair: bool) -> int:
        """Validate one segment, indexing its records; return its rows."""
        data = path.read_bytes()
        offset = 0
        rows_seen = 0

        def damaged(at: int, reason: str) -> None:
            if repair:
                with path.open("r+b") as handle:
                    handle.truncate(at)
                return
            raise SegmentIntegrityError(path, at, reason)

        if len(data) < _FILE_HEADER.size:
            damaged(0, "missing or truncated file header")
            return rows_seen
        magic, version = _FILE_HEADER.unpack_from(data, 0)
        if magic != _MAGIC:
            raise SegmentIntegrityError(path, 0, "bad magic (not a segment)")
        if version != _VERSION:
            raise SegmentIntegrityError(
                path, 0, f"unsupported segment version {version}"
            )
        offset = _FILE_HEADER.size
        while offset < len(data):
            record_start = offset
            if len(data) - offset < _RECORD_HEADER.size:
                damaged(record_start, "truncated record header")
                return rows_seen
            height, epoch, rows = _RECORD_HEADER.unpack_from(data, offset)
            if rows > _MAX_RECORD_ROWS:
                raise SegmentIntegrityError(
                    path, record_start, f"implausible row count {rows}"
                )
            body = _RECORD_HEADER.size + rows * _ROW_BYTES
            if len(data) - record_start < body + _CRC.size:
                damaged(record_start, "truncated record body")
                return rows_seen
            (stored_crc,) = _CRC.unpack_from(data, record_start + body)
            actual_crc = zlib.crc32(data[record_start : record_start + body])
            if stored_crc != actual_crc:
                raise SegmentIntegrityError(
                    path, record_start, "record CRC mismatch"
                )
            if self._records and height <= self._records[-1].height:
                raise SegmentIntegrityError(
                    path,
                    record_start,
                    f"non-monotone height {height} after "
                    f"{self._records[-1].height}",
                )
            self._records.append(
                _Record(int(height), int(epoch), int(rows), segment, record_start)
            )
            rows_seen += int(rows)
            offset = record_start + body + _CRC.size
        return rows_seen

    # -- append -------------------------------------------------------------

    def append(self, height: int, batch: MigrationRequestBatch) -> None:
        """Append one committed batch at ``height`` (strictly increasing)."""
        if len(batch) == 0:
            raise ValidationError("cannot append an empty batch")
        if self._records and height <= self._records[-1].height:
            raise ValidationError(
                f"height {height} not above last logged height "
                f"{self._records[-1].height}"
            )
        if not self._paths or self._tail_rows >= self.segment_rows:
            self._rotate()
        header = _RECORD_HEADER.pack(int(height), int(batch.epoch), len(batch))
        columns = b"".join(
            np.ascontiguousarray(column).tobytes()
            for column in (
                batch.accounts,
                batch.from_shards,
                batch.to_shards,
                batch.gains,
            )
        )
        body = header + columns
        record = body + _CRC.pack(zlib.crc32(body))
        handle = self._tail_handle()
        offset = handle.tell()
        handle.write(record)
        handle.flush()
        self._records.append(
            _Record(
                int(height),
                int(batch.epoch),
                len(batch),
                len(self._paths) - 1,
                offset,
            )
        )
        self._tail_rows += len(batch)

    def _rotate(self) -> None:
        if self._append_handle is not None:
            self._append_handle.close()
            self._append_handle = None
        path = self.directory / _segment_name(len(self._paths))
        with path.open("wb") as handle:
            handle.write(_FILE_HEADER.pack(_MAGIC, _VERSION))
        self._paths.append(path)
        self._tail_rows = 0

    def _tail_handle(self):
        if self._append_handle is None:
            self._append_handle = self._paths[-1].open("ab")
        return self._append_handle

    def close(self) -> None:
        if self._append_handle is not None:
            self._append_handle.close()
            self._append_handle = None

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        except Exception:
            pass

    # -- read ---------------------------------------------------------------

    def __len__(self) -> int:
        """Number of logged records (committed batches)."""
        return len(self._records)

    @property
    def total_rows(self) -> int:
        """Total committed migration rows across every segment."""
        return sum(record.rows for record in self._records)

    @property
    def last_height(self) -> Optional[int]:
        return self._records[-1].height if self._records else None

    @property
    def segment_paths(self) -> Tuple[Path, ...]:
        return tuple(self._paths)

    def _load(self, record: _Record) -> MigrationRequestBatch:
        with self._paths[record.segment].open("rb") as handle:
            handle.seek(record.offset + _RECORD_HEADER.size)
            raw = handle.read(record.rows * _ROW_BYTES)
        if len(raw) != record.rows * _ROW_BYTES:
            raise SegmentIntegrityError(
                self._paths[record.segment],
                record.offset,
                "record shrank after indexing",
            )
        n = record.rows
        span = n * 8
        return MigrationRequestBatch(
            np.frombuffer(raw, dtype=np.int64, count=n, offset=0),
            np.frombuffer(raw, dtype=np.int64, count=n, offset=span),
            np.frombuffer(raw, dtype=np.int64, count=n, offset=2 * span),
            np.frombuffer(raw, dtype=np.float64, count=n, offset=3 * span),
            epoch=record.epoch,
        )

    def _first_at_or_above(self, height: int) -> int:
        """Index of the first record with ``record.height >= height``."""
        lo, hi = 0, len(self._records)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._records[mid].height < height:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def batch_at(self, height: int) -> Optional[MigrationRequestBatch]:
        """The batch logged at exactly ``height``, or None (empty commit)."""
        position = self._first_at_or_above(height)
        if (
            position < len(self._records)
            and self._records[position].height == height
        ):
            return self._load(self._records[position])
        return None

    def iter_batches(
        self, start_height: int = 0
    ) -> Iterator[Tuple[int, MigrationRequestBatch]]:
        """Yield ``(height, batch)`` for records at height >= ``start_height``.

        Reads one record at a time, so iterating a height window holds
        one batch in memory, never the log.
        """
        for position in range(self._first_at_or_above(start_height), len(self._records)):
            record = self._records[position]
            yield record.height, self._load(record)
