"""Pilot — the reference client-side shard-selection algorithm (Alg. 1).

``Pilot.decide`` is a faithful, per-client implementation of the paper's
Algorithm 1: compute ``Psi_h`` and ``Psi_e`` (Eq. 1), fuse them (Eq. 2),
then scan all ``k`` shards for the maximum Potential (Eq. 4). Its input
is exactly what a real client holds: its own transactions ``T_nu`` and
the downloaded workload vector ``Omega`` — a few hundred bytes, which is
the efficiency story of Table IV.

``batch_pilot_decisions`` is the numerically identical vectorised
variant the simulation engine uses to run thousands of clients per
epoch. It lays the potentials out shard-major, ``(k, n)``, so that
every per-account reduction over shards is an elementwise pass over
``k`` contiguous rows rather than ``n`` short row reductions. The
per-account ``Psi`` totals stay the row sums of the ``(n, k)`` fused
matrix, so fused values with a fractional ``beta`` round as the
per-client path rounds them. ``tests/pilot_reference.py`` keeps the
row-wise kernel it replaced as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.chain.mapping import ShardMapping
from repro.chain.transaction import TransactionBatch
from repro.core.cost import potential_matrix, potential_vector
from repro.core.interaction import fuse_distributions, interaction_distribution
from repro.errors import ValidationError
from repro.util.validation import check_probability


@dataclass(frozen=True)
class PilotDecision:
    """Outcome of one Pilot run for one account."""

    account: int
    current_shard: int
    best_shard: int
    gain: float
    potentials: np.ndarray

    @property
    def wants_migration(self) -> bool:
        """True when the client should submit a migration request."""
        return self.best_shard != self.current_shard and self.gain > 0


def _select_best_shard(
    potentials: np.ndarray, omega: np.ndarray, current: int
) -> int:
    """Argmax of ``potentials`` with deterministic, workload-aware ties.

    Ties on Potential are broken toward the least-loaded shard (and then
    the current shard, to avoid gratuitous migrations), matching the
    cost function's intent: equal Potential means equal cost, so the
    client prefers the cheaper/less congested option.
    """
    best_value = potentials.max()
    tied = np.flatnonzero(potentials >= best_value - 1e-12)
    if len(tied) == 1:
        return int(tied[0])
    if current in tied and np.isclose(omega[current], omega[tied].min()):
        return current
    return int(tied[np.argmin(omega[tied])])


class Pilot:
    """The reference algorithm, configured with ``eta`` and ``beta``."""

    def __init__(self, eta: float, beta: float = 0.0) -> None:
        if eta < 1:
            raise ValidationError(f"eta must be >= 1, got {eta}")
        check_probability("beta", beta)
        self.eta = eta
        self.beta = beta

    def decide(
        self,
        account: int,
        history: TransactionBatch,
        expected: TransactionBatch,
        omega: np.ndarray,
        mapping: ShardMapping,
    ) -> PilotDecision:
        """Run Algorithm 1 for ``account`` and return the decision.

        Args:
            account: the client's account id.
            history: the client's committed transactions ``T_h^nu``
                (extra transactions not involving the account are
                ignored, so callers may pass a superset).
            expected: the client's expected future transactions
                ``T_e^nu``.
            omega: the downloaded workload distribution ``Omega``.
            mapping: the current allocation view ``phi``.
        """
        omega = np.asarray(omega, dtype=np.float64)
        if len(omega) != mapping.k:
            raise ValidationError(
                f"omega has {len(omega)} entries but mapping has k={mapping.k}"
            )
        # Lines 1-2: historical and expected connection distributions.
        psi_h = interaction_distribution(account, history, mapping)
        psi_e = interaction_distribution(account, expected, mapping)
        # Lines 3-4: fusion.
        psi = fuse_distributions(psi_h, psi_e, self.beta)
        # Lines 5-14: maximise the Potential over all shards.
        potentials = potential_vector(psi, omega, self.eta)
        current = mapping.shard_of(account)
        best = _select_best_shard(potentials, omega, current)
        gain = float(potentials[best] - potentials[current])
        return PilotDecision(
            account=account,
            current_shard=current,
            best_shard=best,
            gain=gain,
            potentials=potentials,
        )


def batch_pilot_decisions(
    accounts: np.ndarray,
    psi_history: np.ndarray,
    psi_expected: np.ndarray,
    omega: np.ndarray,
    current_shards: np.ndarray,
    eta: float,
    beta: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised Pilot for many accounts at once.

    Args:
        accounts: account ids, shape ``(n,)`` (used for validation only).
        psi_history: ``(n, k)`` historical interaction matrix.
        psi_expected: ``(n, k)`` expected interaction matrix.
        omega: ``(k,)`` workload vector.
        current_shards: ``(n,)`` current shard of each account.
        eta, beta: protocol / fusion parameters.

    Returns:
        ``(best_shards, gains)`` where ``gains[r] = P_best - P_current``.
        The tie-breaking matches :meth:`Pilot.decide` exactly.

    The potentials are one shard-major ``(k, n)`` array (see
    :func:`~repro.core.cost.potential_matrix`). Among the shards within
    ``1e-12`` of an account's maximum, the least-loaded wins, the lowest
    id among equal loads: the shards fill ``best`` in the reverse of a
    stable argsort of ``omega``, so the last write is the first shard in
    that order. The current shard is kept when it is tied and its load
    is ``np.isclose`` to the winner's. Non-finite or negative ``Psi`` or
    ``omega`` entries raise :class:`ValidationError`, as in
    :meth:`Pilot.decide`.
    """
    psi = fuse_distributions(psi_history, psi_expected, beta)
    omega = np.asarray(omega, dtype=np.float64)
    potentials = potential_matrix(psi, omega, eta).T
    k, n = potentials.shape
    current = np.asarray(current_shards)
    if len(current) != n or len(accounts) != n:
        raise ValidationError("accounts/current_shards must match psi rows")
    if n and (current.min() < 0 or current.max() >= k):
        raise ValidationError(f"current shards must lie in [0, {k})")

    threshold = potentials.max(axis=0)
    threshold -= 1e-12
    tied = potentials >= threshold
    best = np.empty(n, dtype=np.int64)
    for shard in np.argsort(omega, kind="stable")[::-1].tolist():
        np.copyto(best, shard, where=tied[shard])
    columns = np.arange(n)
    flat = potentials.reshape(-1)
    at_current = flat[current * n + columns]
    at_best = flat[best * n + columns]
    # Prefer the current shard when it is tied and as lightly loaded as
    # the winner (avoids gratuitous migrations).
    close = np.isclose(omega[:, np.newaxis], omega[np.newaxis, :])
    keep_current = (at_current >= threshold) & close[current, best]
    best_shards = np.where(keep_current, current, best)
    gains = np.where(keep_current, at_current, at_best) - at_current
    return best_shards, gains
