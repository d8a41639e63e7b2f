"""Full-scan reference for Pilot's history rows (a test oracle).

Production keeps every client's ``Psi_h`` row as state:
``MosaicAllocator`` maintains an integer count matrix over its
accumulated edge list and re-homes counterparties when the mapping
changes. This module keeps the stateless formulation — rescan the whole
edge list against the current mapping every time — so property tests
can check the maintained rows against it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.chain.mapping import ShardMapping


def history_psi_scan(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    edge_w: np.ndarray,
    accounts: np.ndarray,
    mapping: ShardMapping,
) -> np.ndarray:
    """``Psi_h`` rows for sorted-unique ``accounts`` under ``mapping``.

    Every undirected edge ``(u, v, w)`` adds ``w`` to ``u``'s row at
    ``phi(v)`` and to ``v``'s row at ``phi(u)``. A counterparty beyond
    ``mapping.n_accounts`` has no shard yet and contributes nothing.
    """
    k = mapping.k
    psi = np.zeros((len(accounts), k), dtype=np.float64)
    if len(edge_u) == 0 or len(accounts) == 0:
        return psi
    shard_of = mapping.as_array()
    span = max(int(edge_u.max()), int(edge_v.max()), int(accounts.max())) + 1
    is_active = np.zeros(span, dtype=bool)
    is_active[accounts] = True
    weights = np.asarray(edge_w, dtype=np.float64)
    for ids, others in ((edge_u, edge_v), (edge_v, edge_u)):
        present = is_active[ids] & (others < mapping.n_accounts)
        if not present.any():
            continue
        rows = np.searchsorted(accounts, ids[present])
        keys = rows * k + shard_of[others[present]]
        psi += np.bincount(
            keys, weights=weights[present], minlength=len(accounts) * k
        ).reshape(len(accounts), k)
    return psi
