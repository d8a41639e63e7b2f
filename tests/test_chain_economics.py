"""Unit tests for migration-fee economics and the DoS argument."""

import pytest

from repro.chain.economics import (
    FloodingOutcome,
    MigrationFeeSchedule,
    flooding_attack_cost,
    simulate_flooding,
)
from repro.chain.migration import MigrationRequest
from repro.errors import ConfigurationError, ValidationError


def honest(account, gain):
    return MigrationRequest(
        account=account, from_shard=0, to_shard=1, gain=gain
    )


class TestFeeSchedule:
    def test_flat_under_capacity(self):
        schedule = MigrationFeeSchedule(base_fee=2.0, surge_factor=4.0)
        assert schedule.fee(demand=10, capacity=100) == 2.0
        assert schedule.fee(demand=100, capacity=100) == 2.0

    def test_surges_when_oversubscribed(self):
        schedule = MigrationFeeSchedule(base_fee=1.0, surge_factor=4.0)
        assert schedule.fee(demand=200, capacity=100) == pytest.approx(5.0)
        assert schedule.fee(demand=300, capacity=100) == pytest.approx(9.0)

    def test_zero_surge_factor_is_flat(self):
        schedule = MigrationFeeSchedule(base_fee=1.0, surge_factor=0.0)
        assert schedule.fee(demand=1_000, capacity=1) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MigrationFeeSchedule(base_fee=0.0)
        with pytest.raises(ConfigurationError):
            MigrationFeeSchedule(surge_factor=-1.0)
        schedule = MigrationFeeSchedule()
        with pytest.raises(ValidationError):
            schedule.fee(demand=-1, capacity=10)
        with pytest.raises(ValidationError):
            schedule.fee(demand=1, capacity=0)


class TestAttackCost:
    def test_cost_grows_linearly_with_duration(self):
        schedule = MigrationFeeSchedule()
        one = flooding_attack_cost(schedule, 500, 50, capacity=100, epochs=1)
        ten = flooding_attack_cost(schedule, 500, 50, capacity=100, epochs=10)
        assert ten == pytest.approx(10 * one)

    def test_cost_superlinear_in_attack_rate(self):
        """Doubling the flood more than doubles the bill (surge pricing) —
        the economic irrationality the paper argues."""
        schedule = MigrationFeeSchedule(surge_factor=4.0)
        mild = flooding_attack_cost(schedule, 200, 50, capacity=100, epochs=1)
        heavy = flooding_attack_cost(schedule, 400, 50, capacity=100, epochs=1)
        assert heavy > 2 * mild

    def test_validation(self):
        schedule = MigrationFeeSchedule()
        with pytest.raises(ValidationError):
            flooding_attack_cost(schedule, -1, 0, 10, 1)
        with pytest.raises(ValidationError):
            flooding_attack_cost(schedule, 1, 0, 10, -1)


class TestSimulateFlooding:
    def test_honest_high_gain_requests_survive(self):
        """Gain-prioritised commitment keeps honest requests flowing:
        a zero-gain flood cannot displace genuine improvements."""
        schedule = MigrationFeeSchedule()
        honest_requests = [honest(i, gain=float(10 - i)) for i in range(5)]
        outcome = simulate_flooding(
            honest_requests,
            attacker_accounts=range(1_000, 1_500),
            capacity=10,
            schedule=schedule,
        )
        assert outcome.honest_committed == 5
        assert outcome.attacker_committed == 5  # fills leftover slots only

    def test_attacker_pays_far_more_than_honest_users(self):
        schedule = MigrationFeeSchedule(base_fee=1.0, surge_factor=4.0)
        honest_requests = [honest(i, gain=1.0) for i in range(5)]
        outcome = simulate_flooding(
            honest_requests,
            attacker_accounts=range(1_000, 1_500),
            capacity=10,
            schedule=schedule,
        )
        assert outcome.attacker_cost > 50 * outcome.honest_cost
        # And the attacker got almost nothing for it.
        assert outcome.attacker_committed <= 10

    def test_no_attack_baseline(self):
        schedule = MigrationFeeSchedule()
        honest_requests = [honest(i, gain=1.0) for i in range(3)]
        outcome = simulate_flooding(
            honest_requests, attacker_accounts=[], capacity=10, schedule=schedule
        )
        assert outcome.honest_committed == 3
        assert outcome.attacker_cost == 0.0
        assert outcome.attacker_committed == 0

    def test_empty_round(self):
        outcome = simulate_flooding(
            [], attacker_accounts=[], capacity=10,
            schedule=MigrationFeeSchedule(),
        )
        assert outcome.honest_committed == outcome.attacker_committed == 0
        assert isinstance(outcome, FloodingOutcome)
