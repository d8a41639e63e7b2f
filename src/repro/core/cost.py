"""The Pilot cost function and Potential (Section IV, Eq. 3-4).

The cost of account ``nu`` residing in shard ``i`` is (Eq. 3)::

    u_i = (1 * psi_i + eta * psi_{-i}) * xi_i  +  eta * sum_{j != i} psi_j * xi_j

with ``xi_i = f(omega_i)`` a monotone transaction-fee function; Pilot
uses the identity ``xi_i = omega_i``. The paper shows minimising
``u_i`` is equivalent to maximising the **Potential** (Eq. 4)::

    P_i = [(2*eta - 1) * psi_i - eta * psi] * omega_i

which only needs shard ``i``'s own entries — this is the simplification
that makes Pilot O(k) per decision. ``tests/test_core_cost.py`` verifies
the equivalence property-based.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.errors import ValidationError

FeeFunction = Callable[[np.ndarray], np.ndarray]


def _validate(psi: np.ndarray, omega: np.ndarray, eta: float) -> tuple:
    psi = np.asarray(psi, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    if psi.ndim != 1 or omega.ndim != 1:
        raise ValidationError("psi and omega must be 1-D vectors")
    if psi.shape != omega.shape:
        raise ValidationError(
            f"psi has {len(psi)} shards but omega has {len(omega)}"
        )
    if len(psi) == 0:
        raise ValidationError("need at least one shard")
    if eta < 1:
        raise ValidationError(f"eta must be >= 1, got {eta}")
    for name, vector in (("psi", psi), ("omega", omega)):
        if not np.isfinite(vector).all():
            raise ValidationError(f"{name} entries must be finite")
        if vector.min() < 0:
            raise ValidationError(f"{name} entries must be >= 0")
    return psi, omega


def transaction_cost(
    psi: np.ndarray,
    omega: np.ndarray,
    shard: int,
    eta: float,
    fee_function: Optional[FeeFunction] = None,
) -> float:
    """Evaluate the full cost ``u_i`` (Eq. 3) of residing in ``shard``.

    ``fee_function`` maps workloads ``omega`` to per-transaction fees
    ``xi`` and defaults to the identity used by Pilot.
    """
    psi, omega = _validate(psi, omega, eta)
    if not 0 <= shard < len(psi):
        raise ValidationError(f"shard {shard} out of range [0, {len(psi)})")
    xi = omega if fee_function is None else np.asarray(
        fee_function(omega), dtype=np.float64
    )
    if xi.shape != omega.shape:
        raise ValidationError("fee_function must preserve the vector shape")
    psi_i = psi[shard]
    psi_rest = psi.sum() - psi_i
    own_shard_cost = (1.0 * psi_i + eta * psi_rest) * xi[shard]
    other_shard_cost = eta * (psi * xi).sum() - eta * psi_i * xi[shard]
    return float(own_shard_cost + other_shard_cost)


def cost_vector(
    psi: np.ndarray,
    omega: np.ndarray,
    eta: float,
    fee_function: Optional[FeeFunction] = None,
) -> np.ndarray:
    """``u_i`` for every shard ``i`` at once."""
    psi, omega = _validate(psi, omega, eta)
    return np.array(
        [
            transaction_cost(psi, omega, shard, eta, fee_function)
            for shard in range(len(psi))
        ]
    )


def potential(psi_i: float, psi_total: float, omega_i: float, eta: float) -> float:
    """The Potential ``P_i`` (Eq. 4) from scalar inputs."""
    if eta < 1:
        raise ValidationError(f"eta must be >= 1, got {eta}")
    if psi_i < 0 or psi_total < 0 or omega_i < 0:
        raise ValidationError("psi and omega values must be >= 0")
    if psi_i > psi_total:
        raise ValidationError(
            f"psi_i ({psi_i}) cannot exceed psi_total ({psi_total})"
        )
    return ((2.0 * eta - 1.0) * psi_i - eta * psi_total) * omega_i


def potential_vector(psi: np.ndarray, omega: np.ndarray, eta: float) -> np.ndarray:
    """``P_i`` for every shard, for one account's ``psi``."""
    psi, omega = _validate(psi, omega, eta)
    psi_total = psi.sum()
    return ((2.0 * eta - 1.0) * psi - eta * psi_total) * omega


def potential_matrix(
    psi_matrix: np.ndarray, omega: np.ndarray, eta: float
) -> np.ndarray:
    """Vectorised Eq. 4 for many accounts: rows are accounts.

    ``psi_matrix`` has shape ``(n_accounts, k)``; the result has the same
    shape with ``result[r, i] = P_i`` for account ``r``.
    """
    psi_matrix = np.asarray(psi_matrix, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    if psi_matrix.ndim != 2:
        raise ValidationError("psi_matrix must be 2-D (accounts x shards)")
    if omega.ndim != 1 or psi_matrix.shape[1] != len(omega):
        raise ValidationError("omega length must equal psi_matrix columns")
    if eta < 1:
        raise ValidationError(f"eta must be >= 1, got {eta}")
    psi_totals = psi_matrix.sum(axis=1, keepdims=True)
    return ((2.0 * eta - 1.0) * psi_matrix - eta * psi_totals) * omega[np.newaxis, :]
