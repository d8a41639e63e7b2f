"""Unit and property tests for Pilot (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pilot_reference import reference_pilot_decisions

from repro.chain.mapping import ShardMapping
from repro.chain.transaction import TransactionBatch
from repro.core.cost import cost_vector
from repro.core.interaction import (
    fuse_distributions,
    interaction_distribution,
)
from repro.core.pilot import Pilot, batch_pilot_decisions
from repro.errors import ValidationError


def batch_from_pairs(pairs):
    senders = np.array([p[0] for p in pairs], dtype=np.int64)
    receivers = np.array([p[1] for p in pairs], dtype=np.int64)
    return TransactionBatch(senders, receivers)


class TestPilotDecide:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_omega(self, bad):
        mapping = ShardMapping(np.array([0, 1, 1, 1]), k=2)
        history = batch_from_pairs([(0, 1), (0, 2)])
        with pytest.raises(ValidationError, match="omega entries must be finite"):
            Pilot(eta=2.0).decide(
                0, history, TransactionBatch.empty(), np.array([bad, 1.0]), mapping
            )

    def test_moves_toward_interaction_hotspot(self):
        # Account 0 interacts only with accounts on shard 1.
        mapping = ShardMapping(np.array([0, 1, 1, 1]), k=2)
        history = batch_from_pairs([(0, 1), (0, 2), (0, 3), (0, 1)])
        omega = np.array([10.0, 10.0])
        decision = Pilot(eta=2.0).decide(
            0, history, TransactionBatch.empty(), omega, mapping
        )
        assert decision.best_shard == 1
        assert decision.wants_migration
        assert decision.gain > 0

    def test_stays_when_already_optimal(self):
        mapping = ShardMapping(np.array([1, 1, 1, 1]), k=2)
        history = batch_from_pairs([(0, 1), (0, 2), (0, 3)])
        omega = np.array([5.0, 5.0])
        decision = Pilot(eta=2.0).decide(
            0, history, TransactionBatch.empty(), omega, mapping
        )
        assert decision.best_shard == 1
        assert not decision.wants_migration
        assert decision.gain == 0.0

    def test_empty_history_prefers_least_loaded(self):
        mapping = ShardMapping(np.array([0, 1, 1]), k=3)
        omega = np.array([9.0, 4.0, 7.0])
        decision = Pilot(eta=2.0).decide(
            0,
            TransactionBatch.empty(),
            TransactionBatch.empty(),
            omega,
            mapping,
        )
        assert decision.best_shard == 1  # least loaded on a full tie

    def test_decision_minimises_cost(self):
        """Algorithm 1's output matches brute-force cost minimisation."""
        mapping = ShardMapping(np.array([0, 1, 2, 0, 1]), k=3)
        history = batch_from_pairs([(0, 1), (0, 2), (0, 4), (0, 1), (0, 3)])
        omega = np.array([3.0, 7.0, 2.0])
        pilot = Pilot(eta=2.0)
        decision = pilot.decide(
            0, history, TransactionBatch.empty(), omega, mapping
        )
        psi = interaction_distribution(0, history, mapping)
        costs = cost_vector(psi, omega, 2.0)
        assert costs[decision.best_shard] == pytest.approx(costs.min())

    def test_beta_shifts_decision_to_expectations(self):
        mapping = ShardMapping(np.array([0, 0, 1]), k=2)
        history = batch_from_pairs([(0, 1)] * 5)   # history: shard 0
        expected = batch_from_pairs([(0, 2)] * 5)  # future: shard 1
        omega = np.array([5.0, 5.0])
        stay = Pilot(eta=2.0, beta=0.0).decide(0, history, expected, omega, mapping)
        move = Pilot(eta=2.0, beta=1.0).decide(0, history, expected, omega, mapping)
        assert stay.best_shard == 0
        assert move.best_shard == 1

    def test_omega_length_validated(self):
        mapping = ShardMapping(np.array([0, 1]), k=2)
        with pytest.raises(ValidationError):
            Pilot(eta=2.0).decide(
                0,
                TransactionBatch.empty(),
                TransactionBatch.empty(),
                np.array([1.0, 2.0, 3.0]),
                mapping,
            )

    def test_rejects_bad_eta_and_beta(self):
        with pytest.raises(ValidationError):
            Pilot(eta=0.0)
        with pytest.raises(Exception):
            Pilot(eta=2.0, beta=2.0)


@st.composite
def pilot_scenario(draw):
    k = draw(st.integers(2, 5))
    n_accounts = draw(st.integers(k, 12))
    n_tx = draw(st.integers(0, 30))
    seed = draw(st.integers(0, 10_000))
    eta = draw(st.sampled_from([1.0, 2.0, 5.0, 10.0]))
    beta = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    return k, n_accounts, n_tx, seed, eta, beta


@settings(max_examples=60, deadline=None)
@given(scenario=pilot_scenario())
def test_batch_matches_scalar_pilot(scenario):
    """Property: batch_pilot_decisions == Pilot.decide for every account."""
    k, n_accounts, n_tx, seed, eta, beta = scenario
    rng = np.random.default_rng(seed)
    mapping = ShardMapping(rng.integers(0, k, size=n_accounts), k)
    senders = rng.integers(0, n_accounts, size=n_tx)
    receivers = (senders + 1 + rng.integers(0, n_accounts - 1, size=n_tx)) % n_accounts
    history = TransactionBatch(senders, receivers)
    e_senders = rng.integers(0, n_accounts, size=n_tx // 2)
    e_receivers = (
        e_senders + 1 + rng.integers(0, n_accounts - 1, size=n_tx // 2)
    ) % n_accounts
    expected = TransactionBatch(e_senders, e_receivers)
    omega = rng.uniform(0.5, 20.0, size=k)

    pilot = Pilot(eta=eta, beta=beta)
    accounts = np.arange(n_accounts)
    psi_h = np.stack(
        [interaction_distribution(int(a), history, mapping) for a in accounts]
    )
    psi_e = np.stack(
        [interaction_distribution(int(a), expected, mapping) for a in accounts]
    )
    best, gains = batch_pilot_decisions(
        accounts, psi_h, psi_e, omega, mapping.as_array(), eta, beta
    )
    for account in accounts:
        decision = pilot.decide(int(account), history, expected, omega, mapping)
        assert decision.best_shard == best[account], account
        assert decision.gain == pytest.approx(gains[account])


@settings(max_examples=60, deadline=None)
@given(scenario=pilot_scenario())
def test_pilot_never_picks_worse_shard(scenario):
    """Property: the chosen shard's cost is never above the current one."""
    k, n_accounts, n_tx, seed, eta, beta = scenario
    rng = np.random.default_rng(seed)
    mapping = ShardMapping(rng.integers(0, k, size=n_accounts), k)
    senders = rng.integers(0, n_accounts, size=n_tx)
    receivers = (senders + 1 + rng.integers(0, n_accounts - 1, size=n_tx)) % n_accounts
    history = TransactionBatch(senders, receivers)
    omega = rng.uniform(0.5, 20.0, size=k)
    pilot = Pilot(eta=eta, beta=beta)
    for account in range(n_accounts):
        decision = pilot.decide(
            account, history, TransactionBatch.empty(), omega, mapping
        )
        psi_h = interaction_distribution(account, history, mapping)
        psi = fuse_distributions(psi_h, np.zeros(k), beta)
        costs = cost_vector(psi, omega, eta)
        assert (
            costs[decision.best_shard]
            <= costs[decision.current_shard] + 1e-6
        )


class TestBatchValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            batch_pilot_decisions(
                np.array([0]),
                np.ones((2, 3)),
                np.ones((2, 3)),
                np.ones(3),
                np.zeros(2, dtype=np.int64),
                2.0,
                0.0,
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_omega_as_decide_does(self, bad):
        with pytest.raises(ValidationError, match="omega entries must be finite"):
            batch_pilot_decisions(
                np.arange(2),
                np.ones((2, 3)),
                np.zeros((2, 3)),
                np.array([bad, 1.0, 2.0]),
                np.zeros(2, dtype=np.int64),
                2.0,
                0.0,
            )

    def test_rejects_negative_omega(self):
        with pytest.raises(ValidationError, match="omega entries must be >= 0"):
            batch_pilot_decisions(
                np.arange(1),
                np.ones((1, 2)),
                np.zeros((1, 2)),
                np.array([-1.0, 1.0]),
                np.zeros(1, dtype=np.int64),
                2.0,
                0.0,
            )

    @pytest.mark.parametrize(
        "bad, message",
        [
            (float("nan"), "finite"),
            (float("inf"), "finite"),
            (float("-inf"), "finite"),
            (-5.0, ">= 0"),
        ],
    )
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
    def test_rejects_bad_psi_in_either_term(self, bad, message, beta):
        """The fused ``Psi`` is checked, as ``Pilot.decide`` checks it: a
        non-finite entry poisons the fusion at any ``beta`` (0 * inf is
        nan), a negative one only where its term has weight."""
        for history_bad in (True, False):
            weight = 1.0 - beta if history_bad else beta
            if bad < 0 and weight == 0.0:
                continue
            psi_h = np.ones((2, 3))
            psi_e = np.ones((2, 3))
            (psi_h if history_bad else psi_e)[1, 2] = bad
            with pytest.raises(ValidationError, match=f"psi entries must be {message}"):
                batch_pilot_decisions(
                    np.arange(2),
                    psi_h,
                    psi_e,
                    np.ones(3),
                    np.zeros(2, dtype=np.int64),
                    2.0,
                    beta,
                )

    @pytest.mark.parametrize("current", [-1, 3])
    def test_rejects_current_shard_out_of_range(self, current):
        with pytest.raises(ValidationError, match="current shards"):
            batch_pilot_decisions(
                np.arange(2),
                np.ones((2, 3)),
                np.ones((2, 3)),
                np.ones(3),
                np.array([0, current]),
                2.0,
                0.0,
            )


@st.composite
def kernel_case(draw):
    """Integer counts (int32 or float64, as the engine and callers pass
    them), some all-zero rows, and ``omega`` from a few integer levels
    (some nudged by 1e-9, inside ``np.isclose``) so that ties occur; half
    the rows start on one of their tied shards."""
    k = draw(st.integers(1, 40))
    n = draw(st.integers(0, 25))
    eta = draw(st.sampled_from([1.0, 1.5, 2.0, 5.0]))
    beta = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.75, 1.0]))
    levels = draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.int32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    active = rng.random((n, 1)) < 0.7
    psi_h = (rng.integers(0, 4, (n, k)) * active).astype(dtype)
    psi_e = (rng.integers(0, 3, (n, k)) * (rng.random((n, 1)) < 0.7)).astype(dtype)
    omega = rng.integers(0, levels, k) * 10.0 + (rng.random(k) < 0.2) * 1e-9
    current = rng.integers(0, k, n)
    psi = (1.0 - beta) * psi_h.astype(np.float64) + beta * psi_e
    potentials = ((2.0 * eta - 1.0) * psi - eta * psi.sum(axis=1, keepdims=True)) * omega
    for row in np.flatnonzero(rng.random(n) < 0.5):
        tied = np.flatnonzero(potentials[row] >= potentials[row].max() - 1e-12)
        current[row] = rng.choice(tied)
    return psi_h, psi_e, omega, current, eta, beta


@settings(max_examples=400, deadline=None)
@given(case=kernel_case())
def test_kernel_matches_row_wise_oracle_bit_for_bit(case):
    """The shard-major kernel equals the row-wise reference exactly:
    same best shards (and dtype), same gain bit patterns."""
    psi_h, psi_e, omega, current, eta, beta = case
    best, gains = batch_pilot_decisions(
        np.arange(len(current)), psi_h, psi_e, omega, current, eta, beta
    )
    expected_best, expected_gains = reference_pilot_decisions(
        psi_h, psi_e, omega, current, eta, beta
    )
    assert best.dtype == expected_best.dtype
    np.testing.assert_array_equal(best, expected_best)
    assert gains.dtype == expected_gains.dtype
    assert gains.tobytes() == expected_gains.tobytes()

