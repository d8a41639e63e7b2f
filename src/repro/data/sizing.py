"""Sizing pass and its persisted index for CSV ingest.

The streaming engine's bounded protocol needs three facts before the
first epoch can run: the total row count (to place the history cut),
the account-universe size (to size mappings and state columns), and —
for observed-funding executed runs — the canonical funding partials.
A CSV extract can only answer after a full read, so a replay starts
with a *sizing pass* (:func:`sizing_pass`) over the whole file. The
engine spools every chunk that pass decodes and replays the spool into
the epoch loop, so each row is decoded once per replay.

This module also persists that pass as a sidecar next to the extract
(``trace.csv`` -> ``trace.csv.sizing.npz``) holding::

    (n_rows, universe, canonical funding partials)

plus the stat fingerprint (size, mtime_ns) of the CSV it was built
from. :meth:`CsvTraceSource.sizing_index` loads it and
:class:`~repro.sim.engine.Simulation` skips the sizing pass when it
matches: the one decode then feeds the epoch loop directly and nothing
is spooled. A sidecar that *disagrees* with its file (the extract was
regenerated, truncated, or appended-to) raises the typed
:class:`~repro.errors.SizingIndexError` rather than silently funding a
stale universe; a missing sidecar simply means "no index" and the
sizing pass runs.

Bit-exactness contract: the partials are the accumulator's surviving
pre-headroom array padded to the universe
(``ObservedFundingAccumulator(headroom=0.0).finalise(n_accounts)``),
and :meth:`SizingIndex.funding_balances` replays the tail of
``finalise`` — zero-init, prefix add, headroom scale — so genesis
funding from an index, live or persisted, is bit-identical to an
accumulator finalised with the run's ``funding_headroom``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Union

import numpy as np

from repro.errors import SizingIndexError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chain.transaction import TransactionBatch
    from repro.data.source import TraceSource

#: Sidecar format version; bumped on any layout change so older
#: sidecars invalidate loudly instead of being misread.
SIZING_INDEX_VERSION = 1

#: Suffix appended to the CSV path (``trace.csv.sizing.npz``).
SIZING_INDEX_SUFFIX = ".sizing.npz"


def sizing_index_path(csv_path: Union[str, Path]) -> Path:
    """Sidecar path for ``csv_path`` (appended suffix, same directory)."""
    csv_path = Path(csv_path)
    return csv_path.with_name(csv_path.name + SIZING_INDEX_SUFFIX)


@dataclass(frozen=True)
class SizingIndex:
    """One sizing pass: row count, universe, funding partials.

    ``partials`` is the length-``n_accounts`` pre-headroom funding
    array (all zeros for a valueless metric trace — storing it
    unconditionally keeps the format single-shape); ``values_present``
    records whether any decoded chunk carried a value column, which the
    engine needs to normalise the chunk stream it replays.
    ``file_size``/``file_mtime_ns`` fingerprint the CSV a persisted
    index was built from; they are None for a live pass's index, which
    is never written.
    """

    n_rows: int
    n_accounts: int
    max_account_id: int
    values_present: bool
    partials: np.ndarray
    file_size: Optional[int] = None
    file_mtime_ns: Optional[int] = None

    def funding_balances(self, n_accounts: int, headroom: float) -> np.ndarray:
        """Replay ``ObservedFundingAccumulator.finalise`` from the partials.

        Must be called with the index's own universe size (the engine
        derives both from the same index); the replication below is
        the exact tail of ``finalise`` so the result is bit-identical
        to an accumulator finalised with ``headroom``.
        """
        if n_accounts != self.n_accounts:
            raise ValidationError(
                f"sizing index covers {self.n_accounts} accounts, "
                f"asked to fund {n_accounts}"
            )
        if headroom < 0:
            raise ValidationError(f"headroom must be >= 0, got {headroom}")
        balances = np.zeros(n_accounts, dtype=np.float64)
        balances[: len(self.partials)] += self.partials
        if headroom:
            balances *= 1.0 + headroom
        return balances


def sizing_pass(
    chunks: Iterable["TransactionBatch"], source: "TraceSource"
) -> SizingIndex:
    """Consume ``chunks`` (one pass over ``source``) and size the run.

    Counts rows, accumulates the funding partials in canonical chunk
    order (so any chunk size yields the same partials) and resolves the
    universe: the source's first-seen registry when it resolved one,
    else ``max_account_id + 1``. The engine's live sizing pass and
    :func:`build_sizing_index` both run this.
    """
    from repro.chain.economics import ObservedFundingAccumulator

    accumulator = ObservedFundingAccumulator(headroom=0.0)
    values_present = False
    for chunk in chunks:
        accumulator.add(chunk)
        if chunk.values is not None:
            values_present = True
    resolved = source.resolved_n_accounts()
    if resolved is None:
        resolved = accumulator.max_account_id + 1
    n_accounts = max(int(resolved), 0)
    return SizingIndex(
        n_rows=accumulator.rows,
        n_accounts=n_accounts,
        max_account_id=accumulator.max_account_id,
        values_present=values_present,
        partials=accumulator.finalise(n_accounts),
    )


def build_sizing_index(
    csv_path: Union[str, Path],
    chunk_rows: Optional[int] = None,
) -> SizingIndex:
    """Run one sizing pass over ``csv_path`` and return the index.

    Streams the file through a fresh :class:`CsvTraceSource` (its own
    registry, so building an index never perturbs a live decode) and
    stamps the result with the file's stat fingerprint, taken before
    the pass so a file rewritten during it reads as stale.
    """
    from repro.data.source import DEFAULT_CHUNK_ROWS, CsvTraceSource

    csv_path = Path(csv_path)
    stat = os.stat(csv_path)
    source = CsvTraceSource(
        csv_path,
        chunk_rows=chunk_rows if chunk_rows is not None else DEFAULT_CHUNK_ROWS,
    )
    return replace(
        sizing_pass(source.chunks(), source),
        file_size=stat.st_size,
        file_mtime_ns=stat.st_mtime_ns,
    )


def write_sizing_index(
    csv_path: Union[str, Path],
    index: Optional[SizingIndex] = None,
    chunk_rows: Optional[int] = None,
) -> Path:
    """Build (unless given) and persist the sidecar; returns its path."""
    csv_path = Path(csv_path)
    if index is None:
        index = build_sizing_index(csv_path, chunk_rows=chunk_rows)
    target = sizing_index_path(csv_path)
    with target.open("wb") as handle:
        np.savez(
            handle,
            version=np.int64(SIZING_INDEX_VERSION),
            n_rows=np.int64(index.n_rows),
            n_accounts=np.int64(index.n_accounts),
            max_account_id=np.int64(index.max_account_id),
            values_present=np.bool_(index.values_present),
            partials=np.asarray(index.partials, dtype=np.float64),
            file_size=np.int64(index.file_size),
            file_mtime_ns=np.int64(index.file_mtime_ns),
        )
    return target


def load_sizing_index(csv_path: Union[str, Path]) -> Optional[SizingIndex]:
    """Load and validate the sidecar for ``csv_path``.

    Returns None when no sidecar exists (callers fall back to the
    sizing pass). Raises :class:`SizingIndexError` when a sidecar is
    present but unreadable, version-skewed, or stat-mismatched against
    the CSV — staleness must never be silent.
    """
    csv_path = Path(csv_path)
    sidecar = sizing_index_path(csv_path)
    if not sidecar.exists():
        return None
    try:
        with np.load(sidecar) as payload:
            version = int(payload["version"])
            if version != SIZING_INDEX_VERSION:
                raise SizingIndexError(
                    sidecar,
                    f"sizing index version {version} != "
                    f"{SIZING_INDEX_VERSION}; regenerate the index",
                )
            index = SizingIndex(
                n_rows=int(payload["n_rows"]),
                n_accounts=int(payload["n_accounts"]),
                max_account_id=int(payload["max_account_id"]),
                values_present=bool(payload["values_present"]),
                partials=np.asarray(payload["partials"], dtype=np.float64),
                file_size=int(payload["file_size"]),
                file_mtime_ns=int(payload["file_mtime_ns"]),
            )
    except SizingIndexError:
        raise
    except Exception as exc:  # zip/key/pickle corruption -> typed error
        raise SizingIndexError(
            sidecar, f"unreadable sizing index ({exc}); regenerate it"
        ) from exc
    stat = os.stat(csv_path)
    if stat.st_size != index.file_size or stat.st_mtime_ns != index.file_mtime_ns:
        raise SizingIndexError(
            sidecar,
            "sizing index is stale for "
            f"{csv_path.name} (recorded size={index.file_size} "
            f"mtime_ns={index.file_mtime_ns}, file has size={stat.st_size} "
            f"mtime_ns={stat.st_mtime_ns}); delete or regenerate the index",
        )
    return index
