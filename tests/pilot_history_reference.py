"""Full-scan reference for Pilot's history rows (a test oracle).

Production keeps every client's ``Psi_h`` row as state:
``MosaicAllocator`` maintains an integer count matrix over its
owner-sorted history runs and re-homes counterparties when the mapping
changes. This module keeps the stateless formulation — rescan every
directed edge against the current mapping every time — so property
tests can check the maintained rows against it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.chain.mapping import ShardMapping


def history_psi_scan(
    owners: np.ndarray,
    others: np.ndarray,
    weights: np.ndarray,
    accounts: np.ndarray,
    mapping: ShardMapping,
) -> np.ndarray:
    """``Psi_h`` rows for sorted-unique ``accounts`` under ``mapping``.

    Every directed edge ``(owner, other, w)`` adds ``w`` to ``owner``'s
    row at ``phi(other)``; an undirected interaction is stored once per
    orientation. A counterparty beyond ``mapping.n_accounts`` has no
    shard yet and contributes nothing.
    """
    k = mapping.k
    psi = np.zeros((len(accounts), k), dtype=np.float64)
    if len(owners) == 0 or len(accounts) == 0:
        return psi
    owners = np.asarray(owners, dtype=np.int64)
    others = np.asarray(others, dtype=np.int64)
    span = max(int(owners.max()), int(accounts.max())) + 1
    is_active = np.zeros(span, dtype=bool)
    is_active[accounts] = True
    present = is_active[owners] & (others < mapping.n_accounts)
    rows = np.searchsorted(accounts, owners[present])
    keys = rows * k + mapping.as_array()[others[present]]
    psi += np.bincount(
        keys,
        weights=np.asarray(weights, dtype=np.float64)[present],
        minlength=len(accounts) * k,
    ).reshape(len(accounts), k)
    return psi
