"""Sizing pass for CSV ingest.

The streaming engine's bounded protocol needs three facts before the
first epoch can run: the total row count (to place the history cut),
the account-universe size (to size mappings and state columns), and —
for observed-funding executed runs — the genesis funding partials.
A CSV extract can only answer after a full read, so a replay starts
with a *sizing pass* (:func:`sizing_pass`) over the whole file. The
engine spools every chunk that pass decodes and replays the spool into
the epoch loop, so each row is decoded once per replay.

Bit-exactness contract: the partials are
``ObservedFundingAccumulator().finalise(n_accounts)`` over the pass's
chunks, bit-identical to the eager
:func:`~repro.chain.economics.observed_funding_balances` over the
materialised extract, so genesis funding from the pass is the eager
function's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chain.transaction import TransactionBatch
    from repro.data.source import TraceSource


@dataclass(frozen=True)
class SizingIndex:
    """One sizing pass: row count, universe, funding partials.

    ``partials`` is the length-``n_accounts`` observed-funding genesis
    balance array.
    """

    n_rows: int
    n_accounts: int
    partials: np.ndarray


def sizing_pass(
    chunks: Iterable["TransactionBatch"], source: "TraceSource"
) -> SizingIndex:
    """Consume ``chunks`` (one pass over ``source``) and size the run.

    Counts rows, accumulates the funding partials in canonical chunk
    order (so any chunk size yields the same partials) and resolves the
    universe: the source's first-seen registry when it resolved one,
    else ``max_account_id + 1``.
    """
    from repro.chain.economics import ObservedFundingAccumulator

    accumulator = ObservedFundingAccumulator()
    for chunk in chunks:
        accumulator.add(chunk)
    resolved = source.resolved_n_accounts()
    if resolved is None:
        resolved = accumulator.max_account_id + 1
    n_accounts = max(int(resolved), 0)
    return SizingIndex(
        n_rows=accumulator.rows,
        n_accounts=n_accounts,
        partials=accumulator.finalise(n_accounts),
    )
