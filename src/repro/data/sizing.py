"""Sizing pass for CSV ingest.

The streaming engine's bounded protocol needs three facts before the
first epoch can run: the total row count (to place the history cut),
the account-universe size (to size mappings and state columns), and —
for observed-funding executed runs — the canonical funding partials.
A CSV extract can only answer after a full read, so a replay starts
with a *sizing pass* (:func:`sizing_pass`) over the whole file. The
engine spools every chunk that pass decodes and replays the spool into
the epoch loop, so each row is decoded once per replay.

Bit-exactness contract: the partials are the accumulator's
pre-headroom array padded to the universe
(``ObservedFundingAccumulator().finalise(n_accounts)``), and
:meth:`SizingIndex.funding_balances` scales them exactly as the eager
:func:`~repro.chain.economics.observed_funding_balances` scales its
sums, so genesis funding from the pass is bit-identical to the eager
function with the run's ``funding_headroom``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chain.transaction import TransactionBatch
    from repro.data.source import TraceSource


@dataclass(frozen=True)
class SizingIndex:
    """One sizing pass: row count, universe, funding partials.

    ``partials`` is the length-``n_accounts`` pre-headroom funding
    array (all zeros for a valueless metric trace); ``values_present``
    records whether any decoded chunk carried a value column, which the
    engine needs to normalise the chunk stream it replays.
    """

    n_rows: int
    n_accounts: int
    values_present: bool
    partials: np.ndarray

    def funding_balances(self, headroom: float) -> np.ndarray:
        """Genesis balances for the index's own universe: the partials
        scaled by ``1 + headroom`` — bit-identical to
        ``observed_funding_balances(trace, n_accounts, headroom)``."""
        if headroom < 0:
            raise ValidationError(f"headroom must be >= 0, got {headroom}")
        balances = self.partials.copy()
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
    else ``max_account_id + 1``.
    """
    from repro.chain.economics import ObservedFundingAccumulator

    accumulator = ObservedFundingAccumulator()
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
        values_present=values_present,
        partials=accumulator.finalise(n_accounts),
    )
