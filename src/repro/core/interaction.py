"""Interaction distributions ``Psi`` (Section III-C-1).

The interaction distribution of an account ``nu`` is the k-vector whose
entry ``psi_i`` counts how many times ``nu`` interacted with accounts
currently residing in shard ``i`` (Eq. 1):

    psi_{h,i} = sum_{Tx in T_h^nu} sum_{b in A_Tx - {nu}} 1(phi(b) = i)

Two sources feed it: the client's committed history ``T_h^nu`` and its
expected future transactions ``T_e^nu``; Eq. 2 fuses them with the
confidence parameter ``beta``:

    Psi = (1 - beta) * Psi_h + beta * Psi_e
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.chain.mapping import ShardMapping
from repro.chain.transaction import TransactionBatch
from repro.errors import ValidationError
from repro.util.validation import check_probability


def interaction_distribution(
    account: int,
    transactions: TransactionBatch,
    mapping: ShardMapping,
) -> np.ndarray:
    """Compute ``Psi^nu`` (Eq. 1) for one account.

    ``transactions`` may be any batch; only the transactions involving
    ``account`` contribute. Counterparty shards are evaluated under the
    *current* ``mapping``, as the paper prescribes (clients re-evaluate
    stored history against the latest allocation view).
    """
    if account < 0:
        raise ValidationError(f"account must be >= 0, got {account}")
    own = transactions.involving(account)
    # Self-transfers have A_Tx - {nu} empty, so they contribute nothing.
    own = own.select(own.senders != own.receivers)
    psi = np.zeros(mapping.k, dtype=np.float64)
    if len(own) == 0:
        return psi
    counterparties = np.where(own.senders == account, own.receivers, own.senders)
    shards = mapping.shards_of(counterparties)
    psi += np.bincount(shards, minlength=mapping.k)
    return psi


def interaction_matrix(
    batch: TransactionBatch,
    mapping: ShardMapping,
    accounts: np.ndarray,
) -> np.ndarray:
    """Vectorised Eq. 1 for many accounts at once.

    Returns a ``(len(accounts), k)`` matrix whose row ``r`` is
    ``Psi^{accounts[r]}`` computed over ``batch`` under ``mapping``.
    ``accounts`` must be sorted and unique (callers pass the output of
    ``np.unique``). The counts come from the batch's memoised
    :meth:`~repro.chain.transaction.TransactionBatch.directed_edges`
    table, so a batch's pairs are keyed once however often it is read;
    every count is an integer, so the float sums are exact.
    """
    accounts = np.asarray(accounts, dtype=np.int64)
    if len(accounts) > 1 and np.any(np.diff(accounts) <= 0):
        raise ValidationError("accounts must be sorted and unique")
    k = mapping.k
    if len(batch) == 0 or len(accounts) == 0:
        return np.zeros((len(accounts), k), dtype=np.float64)
    # Self-transfers have A_Tx - {nu} empty and have no edge (matching
    # the scalar interaction_distribution exactly). Each transaction
    # adds 1 to Psi[sender, shard(receiver)] and 1 to Psi[receiver,
    # shard(sender)]: the table holds both orientations.
    owners, others, counts = batch.directed_edges()
    shards = mapping.shards_of(others)
    rows = np.clip(np.searchsorted(accounts, owners), 0, len(accounts) - 1)
    present = accounts[rows] == owners
    keys = rows[present] * k + shards[present]
    psi = np.bincount(keys, weights=counts[present], minlength=len(accounts) * k)
    # bincount answers an empty ``keys`` with int zeros, weights or not.
    return psi.reshape(len(accounts), k).astype(np.float64, copy=False)


def fuse_distributions(
    psi_history: np.ndarray,
    psi_expected: np.ndarray,
    beta: float,
) -> np.ndarray:
    """Fuse historical and expected distributions (Eq. 2).

    ``beta`` is the client's confidence in its future knowledge: 0 means
    rely entirely on history, 1 entirely on expectations. Works on
    single vectors and on stacked matrices alike.
    """
    check_probability("beta", beta)
    psi_history = np.asarray(psi_history)
    psi_expected = np.asarray(psi_expected)
    if psi_history.shape != psi_expected.shape:
        raise ValidationError(
            f"shape mismatch: history {psi_history.shape} vs "
            f"expected {psi_expected.shape}"
        )
    # Each term is cast to float64 inside its product (integer counts
    # convert exactly), and the sum is taken in place.
    fused = np.multiply(psi_history, 1.0 - beta, dtype=np.float64)
    fused += np.multiply(psi_expected, beta, dtype=np.float64)
    return fused
