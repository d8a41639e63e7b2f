"""The multilevel driver and the Metis-like allocator.

``partition_graph`` runs the full multilevel pipeline on a
:class:`TransactionGraph`; :class:`MetisLikeAllocator` adapts it to the
simulation's :class:`Allocator` interface, rebuilding the accumulated
historical graph and repartitioning every epoch — exactly the redundant
global recomputation the paper charges miner-driven methods with.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.allocation.base import AllocationUpdate, Allocator, UpdateContext
from repro.allocation.graph import TransactionGraph
from repro.allocation.metis_like.coarsen import coarsen_level_csr
from repro.allocation.metis_like.csr import CsrAdjacency, cut_weight_csr
from repro.allocation.metis_like.initial import greedy_initial_partition
from repro.allocation.metis_like.refine import polish_level
from repro.chain.mapping import ShardMapping
from repro.chain.params import ProtocolParams
from repro.data.trace import Trace
from repro.errors import PartitionError
from repro.util.rng import RngFactory


@dataclass
class PartitionResult:
    """Outcome of one multilevel partitioning run."""

    vertex_ids: np.ndarray
    assignment: np.ndarray
    cut: float
    levels: int


def partition_graph(
    graph: TransactionGraph,
    k: int,
    balance_factor: float = 1.10,
    seed: int = 0,
    coarsen_target: Optional[int] = None,
) -> PartitionResult:
    """Partition ``graph`` into ``k`` balanced parts, multilevel style.

    Args:
        graph: the weighted account graph.
        k: number of parts (shards).
        balance_factor: per-part weight cap as a multiple of the average
            part weight (1.10 = 10% imbalance allowed, METIS's default
            ballpark).
        seed: RNG seed for the coarsening matchings.
        coarsen_target: stop coarsening when at most this many vertices
            remain (default ``max(16 * k, 64)``).
    """
    if k < 1:
        raise PartitionError(f"k must be >= 1, got {k}")
    if balance_factor < 1.0:
        raise PartitionError(
            f"balance_factor must be >= 1.0, got {balance_factor}"
        )
    vertex_ids = np.asarray(graph.vertices(), dtype=np.int64)
    n = len(vertex_ids)
    if n == 0:
        return PartitionResult(
            vertex_ids=vertex_ids,
            assignment=np.zeros(0, dtype=np.int64),
            cut=0.0,
            levels=0,
        )

    # Columnar relabelling: the graph's directed edge stream maps onto
    # local vertex indices with one inverse-lookup gather per endpoint,
    # yielding the root-level CSR view without materialising any dicts.
    edge_u, edge_v, edge_w = graph.to_arrays()
    local_of = np.zeros(int(vertex_ids[-1]) + 1, dtype=np.int64)
    local_of[vertex_ids] = np.arange(n)
    local_u = local_of[edge_u]
    local_v = local_of[edge_v]
    indptr = np.searchsorted(local_u, np.arange(n + 1))
    root = CsrAdjacency(indptr, local_v, edge_w)
    # Isolated-from-edges vertices can still carry weight 0; give every
    # vertex at least a unit weight so balance means "account count" for
    # degenerate graphs.
    vertex_weights = np.maximum(graph.vertex_weights()[vertex_ids], 1.0)

    total_weight = float(vertex_weights.sum())
    max_part_weight = balance_factor * total_weight / k
    max_vertex_weight = max(total_weight / (4.0 * k), vertex_weights.max())

    rngs = RngFactory(seed)
    target = coarsen_target if coarsen_target is not None else max(16 * k, 64)

    levels: List[Tuple[CsrAdjacency, np.ndarray]] = [(root, vertex_weights)]
    projections: List[np.ndarray] = []
    level_index = 0
    while len(levels[-1][1]) > target:
        fine_adj, fine_weights = levels[-1]
        rng = rngs.generator(f"coarsen-{level_index}")
        coarse_adj, coarse_weights, fine_to_coarse = coarsen_level_csr(
            fine_adj, fine_weights, rng, max_vertex_weight
        )
        if len(coarse_weights) >= 0.95 * len(fine_weights):
            break  # matching stalled; further coarsening is pointless
        levels.append((coarse_adj, coarse_weights))
        projections.append(fine_to_coarse)
        level_index += 1

    # Refinement runs in two phases per level: a relaxed-cap phase lets
    # "swap-shaped" improvements through (moving A out of an almost-full
    # part before B moves in — single-move FM would deadlock on the
    # strict cap), then rebalancing and a strict-cap phase restore the
    # balance constraint.
    relaxed_cap = max_part_weight + max_vertex_weight

    def polish(adjacency_l, weights_l, assignment_l):
        return polish_level(
            adjacency_l, weights_l, assignment_l, k,
            relaxed_cap, max_part_weight,
        )

    coarse_adj, coarse_weights = levels[-1]
    assignment = greedy_initial_partition(
        coarse_adj, coarse_weights, k, max_part_weight
    )
    assignment = polish(coarse_adj, coarse_weights, assignment)

    for depth in range(len(projections) - 1, -1, -1):
        fine_adj, fine_weights = levels[depth]
        fine_to_coarse = projections[depth]
        assignment = assignment[fine_to_coarse]
        assignment = polish(fine_adj, fine_weights, assignment)

    return PartitionResult(
        vertex_ids=vertex_ids,
        assignment=assignment,
        cut=cut_weight_csr(levels[0][0], assignment),
        levels=len(levels),
    )


class MetisLikeAllocator(Allocator):
    """Miner-driven graph partitioning baseline (METIS-style)."""

    name = "metis"

    def __init__(
        self,
        balance_factor: float = 1.10,
        seed: int = 0,
    ) -> None:
        self.balance_factor = balance_factor
        self.seed = seed
        self._graph = TransactionGraph()

    def _partition_to_mapping(
        self, n_accounts: int, k: int, previous: Optional[ShardMapping]
    ) -> Tuple[ShardMapping, float]:
        result = partition_graph(
            self._graph,
            k,
            balance_factor=self.balance_factor,
            seed=self.seed,
        )
        if previous is not None:
            assignment = previous.as_array().copy()
            if len(assignment) < n_accounts:
                raise PartitionError("previous mapping smaller than universe")
        else:
            # Accounts outside the graph get deterministic pseudo-random
            # shards (the paper randomly allocates unseen accounts).
            rng = np.random.default_rng(self.seed)
            assignment = rng.integers(0, k, size=n_accounts, dtype=np.int64)
        in_range = result.vertex_ids < n_accounts
        assignment[result.vertex_ids[in_range]] = result.assignment[in_range]
        return ShardMapping(assignment, k), result.cut

    def initialize(self, history: Trace, params: ProtocolParams) -> ShardMapping:
        self._graph = TransactionGraph.from_batch(
            history.batch, n_accounts=history.n_accounts
        )
        mapping, _ = self._partition_to_mapping(
            history.n_accounts, params.k, previous=None
        )
        return mapping

    def update(
        self, mapping: ShardMapping, context: UpdateContext
    ) -> AllocationUpdate:
        # Miner-driven: fold the epoch into the accumulated global graph
        # and repartition from scratch.
        self._graph.add_batch(context.committed)
        input_bytes = float(self._graph.size_bytes())
        start = time.perf_counter()
        new_mapping, _ = self._partition_to_mapping(
            mapping.n_accounts, mapping.k, previous=mapping
        )
        elapsed = time.perf_counter() - start
        moved = len(mapping.diff(new_mapping))
        return AllocationUpdate(
            mapping=new_mapping,
            execution_time=elapsed,
            unit_time=elapsed,
            input_bytes=input_bytes,
            migrations=moved,
            proposed_migrations=moved,
        )
