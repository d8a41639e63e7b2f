"""Row-wise reference for Pilot's batch kernel (a test oracle).

Production's ``batch_pilot_decisions`` lays the potentials out
shard-major, ``(k, n)``, and breaks ties by each shard's rank in a
stable argsort of ``omega``. This module keeps the account-major
formulation it replaced: the ``(n, k)`` potentials of Eq. 4, the
per-row maximum, an ``argmin`` over ``omega`` masked with ``inf`` where
a shard is not tied, and ``np.isclose`` to keep the current shard. The
property tests compare the two byte for byte (shards and gain bit
patterns). Inputs are assumed valid (finite, >= 0), which production
checks.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def reference_interaction_matrix(batch, mapping, accounts: np.ndarray) -> np.ndarray:
    """Eq. 1 rows for sorted-unique ``accounts``, keyed per transaction:
    each non-self transfer adds 1 to ``[sender, phi(receiver)]`` and 1
    to ``[receiver, phi(sender)]``."""
    accounts = np.asarray(accounts, dtype=np.int64)
    k = mapping.k
    if len(batch) == 0 or len(accounts) == 0:
        return np.zeros((len(accounts), k), dtype=np.float64)
    not_self = batch.senders != batch.receivers
    m = int(not_self.sum())
    ids = np.concatenate([batch.senders[not_self], batch.receivers[not_self]])
    shards = mapping.shards_of(ids)
    counter_shards = np.concatenate([shards[m:], shards[:m]])
    rows = np.clip(np.searchsorted(accounts, ids), 0, len(accounts) - 1)
    present = accounts[rows] == ids
    keys = rows[present] * k + counter_shards[present]
    counts = np.bincount(keys, minlength=len(accounts) * k)
    return counts.reshape(len(accounts), k).astype(np.float64)


def reference_pilot_decisions(
    psi_history: np.ndarray,
    psi_expected: np.ndarray,
    omega: np.ndarray,
    current_shards: np.ndarray,
    eta: float,
    beta: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(best_shards, gains)`` computed row by row."""
    psi_history = np.asarray(psi_history, dtype=np.float64)
    psi_expected = np.asarray(psi_expected, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    psi = (1.0 - beta) * psi_history + beta * psi_expected
    psi_totals = psi.sum(axis=1, keepdims=True)
    potentials = ((2.0 * eta - 1.0) * psi - eta * psi_totals) * omega[np.newaxis, :]
    n = len(potentials)

    best_values = potentials.max(axis=1, keepdims=True)
    tied = potentials >= best_values - 1e-12
    # Among tied shards choose the least-loaded; prefer the current shard
    # when it matches that minimum (avoids gratuitous migrations).
    omega_masked = np.where(tied, omega[np.newaxis, :], np.inf)
    best_shards = np.argmin(omega_masked, axis=1).astype(np.int64)
    rows = np.arange(n)
    current_tied = tied[rows, current_shards]
    current_omega = omega[current_shards]
    keep_current = current_tied & np.isclose(
        current_omega, omega_masked[rows, best_shards]
    )
    best_shards = np.where(keep_current, current_shards, best_shards)
    gains = potentials[rows, best_shards] - potentials[rows, current_shards]
    return best_shards, gains
