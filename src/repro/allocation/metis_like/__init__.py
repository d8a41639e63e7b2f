"""A from-scratch multilevel graph partitioner in the spirit of METIS.

The paper's Metis baseline [9]-[11] partitions the historical account
graph with the classic multilevel scheme:

1. **Coarsening** — repeatedly contract a heavy-edge matching until the
   graph is small (:mod:`repro.allocation.metis_like.coarsen`);
2. **Initial partitioning** — greedy region growing on the coarsest
   graph (:mod:`repro.allocation.metis_like.initial`);
3. **Uncoarsening + refinement** — project the partition back level by
   level, improving it with boundary Fiduccia-Mattheyses-style moves
   under a balance constraint (:mod:`repro.allocation.metis_like.refine`).

No external METIS binary or bindings are used; see DESIGN.md §4.
"""

from repro.allocation.metis_like.partitioner import (
    MetisLikeAllocator,
    PartitionResult,
    partition_graph,
)

__all__ = [
    "MetisLikeAllocator",
    "PartitionResult",
    "partition_graph",
]
