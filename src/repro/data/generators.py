"""Workload-generation primitives shared by the synthetic datasets.

These building blocks let the Ethereum-like generator (and the tests)
compose traces with the statistical properties the allocation algorithms
care about: heavy-tailed activity, repeated counterparties, and community
structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import DataError
from repro.util.validation import check_in_range, check_positive, check_probability

#: Value-model kinds accepted by :class:`ValueModelConfig`.
VALUE_MODEL_UNIFORM = "uniform"
VALUE_MODEL_ZIPF = "zipf"
VALUE_MODEL_BURST = "burst"
VALUE_MODELS = (VALUE_MODEL_UNIFORM, VALUE_MODEL_ZIPF, VALUE_MODEL_BURST)


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalised Zipf weights ``w_i ~ 1 / rank^exponent`` for ``n`` items.

    ``exponent = 0`` degenerates to uniform; Ethereum account activity is
    well approximated by exponents around 1.0-1.3.
    """
    if n < 1:
        raise DataError(f"n must be >= 1, got {n}")
    check_in_range("exponent", exponent, 0.0, 10.0)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


def sample_pairs(
    rng: np.random.Generator,
    n_pairs: int,
    weights: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample ``n_pairs`` (sender, receiver) pairs i.i.d. from ``weights``.

    Self-pairs are re-drawn (a value transfer to oneself carries no
    allocation signal); after a bounded number of redraw rounds any
    remaining self-pairs are shifted by one id as a last resort.
    """
    if n_pairs < 0:
        raise DataError(f"n_pairs must be >= 0, got {n_pairs}")
    n_accounts = len(weights)
    if n_accounts < 2:
        raise DataError("need at least 2 accounts to sample pairs")
    senders = rng.choice(n_accounts, size=n_pairs, p=weights)
    receivers = rng.choice(n_accounts, size=n_pairs, p=weights)
    for _ in range(8):
        clash = senders == receivers
        n_clash = int(clash.sum())
        if n_clash == 0:
            break
        receivers[clash] = rng.choice(n_accounts, size=n_clash, p=weights)
    clash = senders == receivers
    receivers[clash] = (receivers[clash] + 1) % n_accounts
    return senders.astype(np.int64), receivers.astype(np.int64)


@dataclass(frozen=True)
class ValueModelConfig:
    """Per-transfer value (and fee) model for synthetic traces.

    Three kinds:

    * ``"uniform"`` — every transfer moves ``scale`` units;
    * ``"zipf"`` — heavy-tailed transfer values (power-law tail with
      exponent ``exponent``), the shape real Ethereum value flow has:
      most transfers are small, a thin tail moves most of the volume;
    * ``"burst"`` — zipf values plus a flash-crowd window: transfers
      inside the block window ``[burst_start, burst_start + burst_span)``
      (fractions of the trace's block range) carry ``burst_multiplier``
      times the value, modelling an NFT-mint/airdrop surge.

    Values are rounded up to whole units so every generated amount is
    integer-valued — which keeps every balance sum exact, so
    conservation checks can compare totals with ``==``.
    ``fee_fraction > 0`` adds a ``fees`` column of
    ``floor(value * fee_fraction)``.
    """

    kind: str = VALUE_MODEL_ZIPF
    scale: float = 10.0
    exponent: float = 1.5
    fee_fraction: float = 0.0
    burst_start: float = 0.5
    burst_span: float = 0.1
    burst_multiplier: float = 8.0

    def __post_init__(self) -> None:
        if self.kind not in VALUE_MODELS:
            raise DataError(
                f"unknown value model {self.kind!r}; "
                f"available: {', '.join(VALUE_MODELS)}"
            )
        check_positive("scale", self.scale)
        check_in_range("exponent", self.exponent, 0.1, 10.0)
        check_in_range("fee_fraction", self.fee_fraction, 0.0, 1.0)
        check_probability("burst_start", self.burst_start)
        check_probability("burst_span", self.burst_span)
        if self.burst_multiplier < 1:
            raise DataError(
                f"burst_multiplier must be >= 1, got {self.burst_multiplier}"
            )


def sample_transfer_values(
    rng: np.random.Generator,
    blocks: np.ndarray,
    config: ValueModelConfig,
    n_blocks: Optional[int] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Sample ``(values, fees)`` columns for transfers at ``blocks``.

    ``fees`` is ``None`` when the model's ``fee_fraction`` is zero, so
    fee-free traces keep their three/four-column batch layout.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    n = len(blocks)
    if config.kind == VALUE_MODEL_UNIFORM:
        values = np.full(n, np.ceil(config.scale), dtype=np.float64)
    else:
        # Pareto tail: most transfers near `scale`, a heavy tail above.
        values = np.ceil(config.scale * (rng.pareto(config.exponent, size=n) + 1.0))
    if config.kind == VALUE_MODEL_BURST and n:
        span_first = int(blocks[0])
        span_last = int(n_blocks - 1) if n_blocks is not None else int(blocks[-1])
        span = max(1, span_last - span_first + 1)
        start = span_first + int(config.burst_start * span)
        stop = start + max(1, int(config.burst_span * span))
        in_burst = (blocks >= start) & (blocks < stop)
        values[in_burst] *= np.ceil(config.burst_multiplier)
    fees: Optional[np.ndarray] = None
    if config.fee_fraction > 0.0:
        fees = np.floor(values * config.fee_fraction)
    return values, fees


@dataclass(frozen=True)
class CommunityConfig:
    """Parameters of the community-structured pair sampler.

    Attributes:
        n_communities: number of latent communities accounts belong to.
        intra_probability: probability a transaction stays inside the
            sender's community (locality the graph methods exploit).
        activity_exponent: Zipf exponent of within-community activity.
    """

    n_communities: int = 32
    intra_probability: float = 0.8
    activity_exponent: float = 1.0

    def __post_init__(self) -> None:
        if self.n_communities < 1:
            raise DataError(
                f"n_communities must be >= 1, got {self.n_communities}"
            )
        check_probability("intra_probability", self.intra_probability)
        check_in_range("activity_exponent", self.activity_exponent, 0.0, 10.0)


class community_pair_sampler:
    """Samples (sender, receiver) pairs with community locality.

    Accounts are assigned to communities round-robin over a random
    permutation, so community sizes are balanced but membership is
    random. A fraction ``intra_probability`` of transactions pick both
    endpoints inside one community (chosen proportionally to community
    weight); the rest are global pairs.
    """

    def __init__(
        self,
        n_accounts: int,
        config: CommunityConfig,
        rng: np.random.Generator,
    ) -> None:
        if n_accounts < 2:
            raise DataError("need at least 2 accounts")
        self.n_accounts = n_accounts
        self.config = config
        n_comm = min(config.n_communities, n_accounts // 2)
        n_comm = max(1, n_comm)
        permutation = rng.permutation(n_accounts)
        self.community_of = np.empty(n_accounts, dtype=np.int64)
        self.community_of[permutation] = np.arange(n_accounts) % n_comm
        self.n_communities = n_comm
        self.members = [
            np.flatnonzero(self.community_of == c) for c in range(n_comm)
        ]
        self._member_weights = []
        for members in self.members:
            weights = zipf_weights(len(members), config.activity_exponent)
            self._member_weights.append(weights)
        self._global_weights = zipf_weights(n_accounts, config.activity_exponent)
        # Global weights index accounts by activity rank; permute so rank
        # is independent of id order.
        self._global_weights = self._global_weights[
            np.argsort(rng.permutation(n_accounts), kind="stable")
        ]
        self._global_weights /= self._global_weights.sum()

    def sample(
        self, rng: np.random.Generator, n_pairs: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample ``n_pairs`` pairs honouring the locality configuration."""
        if n_pairs == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy()
        intra_mask = rng.random(n_pairs) < self.config.intra_probability
        n_intra = int(intra_mask.sum())
        n_global = n_pairs - n_intra

        senders = np.empty(n_pairs, dtype=np.int64)
        receivers = np.empty(n_pairs, dtype=np.int64)

        if n_global:
            g_senders, g_receivers = sample_pairs(rng, n_global, self._global_weights)
            senders[~intra_mask] = g_senders
            receivers[~intra_mask] = g_receivers

        if n_intra:
            community_sizes = np.array([len(m) for m in self.members], dtype=np.float64)
            community_probs = community_sizes / community_sizes.sum()
            chosen = rng.choice(self.n_communities, size=n_intra, p=community_probs)
            i_senders = np.empty(n_intra, dtype=np.int64)
            i_receivers = np.empty(n_intra, dtype=np.int64)
            for community in np.unique(chosen):
                members = self.members[community]
                weights = self._member_weights[community]
                positions = np.flatnonzero(chosen == community)
                if len(members) < 2:
                    # Degenerate community: fall back to global pairs.
                    s, r = sample_pairs(rng, len(positions), self._global_weights)
                else:
                    s_local, r_local = sample_pairs(rng, len(positions), weights)
                    s, r = members[s_local], members[r_local]
                i_senders[positions] = s
                i_receivers[positions] = r
            senders[intra_mask] = i_senders
            receivers[intra_mask] = i_receivers

        return senders, receivers
