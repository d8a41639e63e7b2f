"""Orbit (Wang et al., ICDCS 2024): pending-transaction-aware TxAllo.

Orbit extends TxAllo by "leveraging pending transactions to estimate
future patterns, which are then fed into TxAllo as input" (Section II-B
of the Mosaic paper). It is the strongest miner-driven baseline in the
lineage, and the natural comparison point for Mosaic's own use of the
mempool: Orbit gives the *miners* lookahead, Mosaic gives it to the
*clients*.

Re-implemented from the published description: the recent-window
interaction graph is augmented with the mempool's pending transactions
(weighted by a confidence factor), and the TxAllo move rule runs over
the accounts active in either set.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.allocation.base import AllocationUpdate, Allocator, UpdateContext
from repro.allocation.graph import TransactionGraph
from repro.allocation.txallo import (
    DEFAULT_BALANCE_FACTOR,
    DEFAULT_ROUNDS,
    a_txallo,
    g_txallo,
)
from repro.chain.mapping import ShardMapping
from repro.chain.params import ProtocolParams
from repro.chain.transaction import TransactionBatch
from repro.data.trace import Trace
from repro.errors import ConfigurationError
from repro.util.idsets import union_ids
from repro.util.validation import check_probability


class OrbitAllocator(Allocator):
    """TxAllo with mempool lookahead (the Orbit mechanism).

    Args:
        pending_weight: weight of a pending transaction relative to a
            committed one when building the estimation graph (Orbit's
            confidence in the mempool's predictive power).
        balance_factor / max_rounds: passed through to the TxAllo core.
        window_epochs: committed-history window length in epochs.
    """

    name = "orbit"

    def __init__(
        self,
        pending_weight: float = 1.0,
        balance_factor: float = DEFAULT_BALANCE_FACTOR,
        max_rounds: int = DEFAULT_ROUNDS,
        window_epochs: int = 1,
    ) -> None:
        check_probability("pending_weight", min(pending_weight, 1.0))
        if pending_weight <= 0:
            raise ConfigurationError(
                f"pending_weight must be > 0, got {pending_weight}"
            )
        if window_epochs < 1:
            raise ConfigurationError(
                f"window_epochs must be >= 1, got {window_epochs}"
            )
        self.pending_weight = pending_weight
        self.balance_factor = balance_factor
        self.max_rounds = max_rounds
        self.window_epochs = window_epochs
        self._full_graph = TransactionGraph()
        self._window: list = []

    def initialize(self, history: Trace, params: ProtocolParams) -> ShardMapping:
        self._full_graph = TransactionGraph.from_batch(
            history.batch, n_accounts=history.n_accounts
        )
        assignment = g_txallo(
            self._full_graph,
            params.k,
            params.eta,
            balance_factor=self.balance_factor,
            max_rounds=self.max_rounds,
        )
        return ShardMapping(assignment, params.k)

    def _estimation_graph(
        self, committed_window: list, mempool: TransactionBatch, n_accounts: int
    ) -> TransactionGraph:
        """Recent committed interactions + confidence-weighted pending ones."""
        graph = TransactionGraph(n_accounts)
        for window_graph in committed_window:
            graph.merge(window_graph)
        if len(mempool):
            pending = TransactionGraph.from_batch(mempool, n_accounts=n_accounts)
            if self.pending_weight == 1.0:
                graph.merge(pending)
            else:
                for u, v, w in pending.edges():
                    graph.add_edge(u, v, w * self.pending_weight)
        return graph

    def update(
        self, mapping: ShardMapping, context: UpdateContext
    ) -> AllocationUpdate:
        k = mapping.k
        self._full_graph.add_batch(context.committed)
        self._window.append(
            TransactionGraph.from_batch(
                context.committed, n_accounts=mapping.n_accounts
            )
        )
        if len(self._window) > self.window_epochs:
            self._window.pop(0)

        estimation = self._estimation_graph(
            self._window, context.mempool, mapping.n_accounts
        )
        input_bytes = float(estimation.size_bytes())
        active = union_ids(
            context.committed.touched_accounts(),
            context.mempool.touched_accounts(),
            mapping.n_accounts,
        )

        assignment = mapping.as_array().copy()
        start = time.perf_counter()
        new_assignment, _ = a_txallo(
            estimation,
            assignment,
            active,
            k,
            context.params.eta,
            balance_factor=self.balance_factor,
        )
        elapsed = time.perf_counter() - start

        new_mapping = ShardMapping(new_assignment, k)
        moved = len(mapping.diff(new_mapping))
        return AllocationUpdate(
            mapping=new_mapping,
            execution_time=elapsed,
            unit_time=elapsed,
            input_bytes=input_bytes,
            migrations=moved,
            proposed_migrations=moved,
        )
