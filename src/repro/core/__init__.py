"""The paper's primary contribution: Mosaic and the Pilot algorithm.

* :mod:`repro.core.interaction` — interaction distributions ``Psi``
  (Eq. 1) and future-knowledge fusion (Eq. 2);
* :mod:`repro.core.cost` — the cost function ``u`` (Eq. 3) and the
  Potential ``P`` (Eq. 4) with the simplification theorem;
* :mod:`repro.core.pilot` — Algorithm 1 (scalar, per-client) and its
  vectorised batch equivalent;
* :mod:`repro.core.client` — the client/wallet abstraction with its
  local transaction store;
* :mod:`repro.core.mosaic` — the client-driven framework packaged as an
  :class:`repro.allocation.base.Allocator` for the simulation engine;
* :mod:`repro.core.coalition` — coalitions of clients deciding jointly.

Pilot prices each shard by its workload directly (``xi = omega``);
:func:`repro.core.cost.cost_vector` keeps the general Eq. 3 cost as the
oracle the tests check Pilot's Eq. 4 Potential against.
"""

from repro.core.interaction import (
    interaction_distribution,
    interaction_matrix,
    fuse_distributions,
)
from repro.core.cost import (
    transaction_cost,
    cost_vector,
    potential,
    potential_vector,
    potential_matrix,
)
from repro.core.pilot import Pilot, PilotDecision, batch_pilot_decisions
from repro.core.client import Client
from repro.core.mosaic import MosaicAllocator
from repro.core.coalition import Coalition, CoalitionDecision
from repro.chain.migration import MigrationRequest

__all__ = [
    "interaction_distribution",
    "interaction_matrix",
    "fuse_distributions",
    "transaction_cost",
    "cost_vector",
    "potential",
    "potential_vector",
    "potential_matrix",
    "Pilot",
    "PilotDecision",
    "batch_pilot_decisions",
    "Client",
    "MosaicAllocator",
    "Coalition",
    "CoalitionDecision",
    "MigrationRequest",
]
