"""Discussion-section scenarios: coalitions (VII-C) and DoS economics (VII-B).

Part 1 — **coordinated clients**: two accounts that mostly transact
with each other but live on different shards. Individually-optimising
Pilot clients chase each other (each wants to move to the *other's*
shard); a coalition decides jointly and co-locates in one step.

Part 2 — **flooding the beacon chain is economically irrational**: an
attacker floods migration requests to crowd out honest clients. The
gain-prioritised, capacity-capped commitment keeps honest requests
flowing while congestion pricing makes the attacker's bill explode.

Part 3 — **cross-shard settlement**: the relay/receipt protocol that
makes cross-shard transactions cost eta > 1, shown conserving value
end to end.

Run with::

    python examples/coalitions_and_security.py
"""

from __future__ import annotations

import numpy as np

from repro import Pilot, ShardMapping
from repro.chain.crossshard import CrossShardExecutor
from repro.chain.economics import (
    MigrationFeeSchedule,
    flooding_attack_cost,
    simulate_flooding,
)
from repro.chain.migration import MigrationRequest
from repro.chain.state import StateRegistry
from repro.chain.transaction import Transaction, TransactionBatch
from repro.core.coalition import Coalition
from repro.workload.observer import WorkloadSnapshot


def pair_batch(pairs):
    return TransactionBatch(
        np.array([p[0] for p in pairs], dtype=np.int64),
        np.array([p[1] for p in pairs], dtype=np.int64),
    )


def coalition_demo() -> None:
    print("-- Part 1: coordinated clients (Section VII-C) ----------------")
    mapping = ShardMapping(np.array([0, 1, 0, 1]), k=2)
    history = pair_batch([(0, 1)] * 6)  # accounts 0 and 1 are partners
    omega = np.array([5.0, 5.0])
    snapshot = WorkloadSnapshot(epoch=0, omega=omega)

    pilot = Pilot(eta=2.0)
    solo_0 = pilot.decide(0, history, TransactionBatch.empty(), omega, mapping)
    solo_1 = pilot.decide(1, history, TransactionBatch.empty(), omega, mapping)
    print(
        f"individually: account 0 wants shard {solo_0.best_shard}, "
        f"account 1 wants shard {solo_1.best_shard} — they chase each other"
    )

    coalition = Coalition([0, 1], eta=2.0)
    decision = coalition.decide(history, snapshot, mapping)
    requests = coalition.propose_migrations(history, snapshot, mapping)
    print(
        f"as a coalition: both settle on shard {decision.best_shard} "
        f"({len(requests)} coordinated migration request(s), "
        f"joint gain {decision.gain:.1f})"
    )


def economics_demo() -> None:
    print("\n-- Part 2: flooding is economically irrational (VII-B) --------")
    schedule = MigrationFeeSchedule(base_fee=1.0, surge_factor=4.0)
    honest = [
        MigrationRequest(account=i, from_shard=0, to_shard=1, gain=float(5 - i))
        for i in range(5)
    ]
    outcome = simulate_flooding(
        honest,
        attacker_accounts=range(10_000, 10_500),
        capacity=20,
        schedule=schedule,
    )
    print(
        f"flood of 500 requests against capacity 20: "
        f"{outcome.honest_committed}/5 honest requests still commit"
    )
    print(
        f"attacker pays {outcome.attacker_cost:,.0f} fee units per epoch "
        f"(honest users pay {outcome.honest_cost:,.1f} in total)"
    )
    month_cost = flooding_attack_cost(
        schedule,
        attack_requests_per_epoch=500,
        honest_requests_per_epoch=5,
        capacity=20,
        epochs=24 * 30,
    )
    print(f"sustaining the flood for a month costs {month_cost:,.0f} units")


def settlement_demo() -> None:
    print("\n-- Part 3: cross-shard settlement (why eta > 1) ----------------")
    mapping = ShardMapping(np.array([0, 1]), k=2)
    executor = CrossShardExecutor(
        StateRegistry(k=2, n_accounts=mapping.n_accounts),
        mapping,
        relay_delay_blocks=1,
    )
    executor.fund(0, 100.0)
    print(f"total value before: {executor.total_value():.0f}")

    (report,) = executor.execute_batch(
        TransactionBatch.from_transactions([Transaction(0, 1, value=30.0)])
    )
    print(
        f"block 0: {report.withdraws} withdraw committed on the source "
        f"shard; {executor.in_flight_value():.0f} units in flight"
    )
    report = executor.settle(1)
    print(
        f"block 1: {report.deposits_settled} deposit settled on the "
        f"target shard after {report.mean_relay_latency:.0f} block relay"
    )
    print(
        f"total value after: {executor.total_value():.0f} "
        "(conserved across both phases)"
    )
    print(
        "two shards each spent consensus work on one transfer — the "
        "cost the paper's difficulty parameter eta abstracts."
    )


if __name__ == "__main__":
    coalition_demo()
    economics_demo()
    settlement_demo()
