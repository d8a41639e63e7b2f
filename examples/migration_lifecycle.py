"""Walk through Figure 2: the full life of an account migration.

Reproduces the paper's toy example — k = 2 shards, epochs of tau = 2
blocks — driving the same chain substrate objects the simulation engine
executes, step by step:

1. a client on shard 2 proposes intra-/cross-shard transactions and a
   migration request;
2. the shards execute the transactions (a cross-shard transfer is a
   withdraw on the sender's shard, then a deposit on the receiver's
   shard one block later) while the beacon chain commits the migration
   request;
3. at the epoch reconfiguration, every shard syncs the beacon chain,
   updates its local mapping ``phi``, and the migrated account's state
   moves to its new shard in the same state sync.

Run with::

    python examples/migration_lifecycle.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    Client,
    Ledger,
    ProtocolParams,
    ShardMapping,
    Transaction,
    TransactionBatch,
    WorkloadOracle,
)
from repro.chain import CrossShardExecutor, MigrationRequestBatch, StateRegistry

ALICE, BOB, CAROL, DAVE = 0, 1, 2, 3
GENESIS_BALANCE = 10.0


def main() -> None:
    params = ProtocolParams(k=2, eta=2.0, tau=2, seed=1)

    # Alice starts on shard 1 (the paper's "originally in shard 2" —
    # shard ids are 0-based here); her friends live on shard 0.
    mapping = ShardMapping(np.array([1, 0, 0, 1]), k=2)
    registry = StateRegistry(2, n_accounts=4)
    executor = CrossShardExecutor(registry, mapping)
    executor.fund_many(np.arange(4), GENESIS_BALANCE)
    genesis_supply = executor.total_value()
    ledger = Ledger(params, executor)
    print(f"initial allocation: {dict(enumerate(mapping.as_array().tolist()))}")

    # --- Propose phase -----------------------------------------------------------
    alice = Client(account=ALICE, eta=params.eta)
    epoch_txs = TransactionBatch.from_transactions(
        [
            Transaction(ALICE, BOB, block=0),    # cross-shard (1 -> 0)
            Transaction(ALICE, CAROL, block=0),  # cross-shard (1 -> 0)
            Transaction(ALICE, DAVE, block=1),   # intra-shard on shard 1
            Transaction(BOB, CAROL, block=1),    # intra-shard on shard 0
        ]
    )
    alice.observe_committed_batch(epoch_txs)

    # The public oracle analyses the pending mempool and publishes Omega.
    oracle = WorkloadOracle(params.eta)
    snapshot = oracle.publish(epoch=0, pending=epoch_txs, mapping=ledger.mapping)
    print(f"published workload distribution Omega = {snapshot.omega}")

    # Alice runs Pilot locally on her wallet data only.
    decision = alice.run_pilot(snapshot, ledger.mapping)
    print(
        f"Pilot: account {ALICE} on shard {decision.current_shard} -> "
        f"best shard {decision.best_shard} (potential gain {decision.gain:.1f})"
    )
    request = alice.propose_migration(snapshot, ledger.mapping, epoch=0)
    assert request is not None, "two of three peers are on shard 0"

    # --- Commit phase -----------------------------------------------------------
    reports = ledger.execute_epoch(epoch_txs)
    for report in reports:
        print(
            f"epoch 0, block {report.block}: {report.intra_executed} intra, "
            f"{report.withdraws} withdraw(s), "
            f"{report.deposits_settled} deposit(s) settled"
        )
    assert [
        (r.intra_executed, r.withdraws, r.deposits_settled) for r in reports
    ] == [(0, 2, 0), (2, 0, 2)]
    ledger.submit_migration_batch(
        MigrationRequestBatch.from_requests([request])
    )
    committed = ledger.commit_migrations(
        0, capacity=int(params.derive_capacity(4))
    )
    print(
        f"beacon chain committed {len(committed)} migration "
        f"request(s) in block {len(ledger.beacon) - 1}"
    )

    # --- Migration phase (epoch reconfiguration) ----------------------------------
    alice_balance = registry.store_of(1).get(ALICE).balance
    applied = ledger.reconfigure(0)
    print(f"reconfiguration: {applied} account(s) migrated")
    print(
        "allocation after epoch 0: "
        f"{dict(enumerate(ledger.mapping.as_array().tolist()))}"
    )
    assert applied == 1
    # Alice's state followed her to her Pilot best shard.
    assert registry.locate(ALICE) == decision.best_shard == 0
    assert registry.store_of(0).get(ALICE).balance == alice_balance

    # Afterwards Alice's transactions with Bob and Carol are intra-shard.
    followup = TransactionBatch.from_transactions(
        [
            Transaction(ALICE, BOB, block=2),
            Transaction(ALICE, CAROL, block=3),
        ]
    )
    reports = ledger.execute_epoch(followup)
    intra = sum(r.intra_executed for r in reports)
    print(f"epoch 1: {intra}/{len(followup)} transactions are now intra-shard")
    assert intra == len(followup) and not any(r.withdraws for r in reports)

    executor.settle_all(from_block=3)
    assert executor.total_value() == genesis_supply == 4 * GENESIS_BALANCE
    print(f"total value {executor.total_value():.1f} — conserved exactly")
    ledger.beacon.verify()
    print("beacon chain verified — hash links intact")


if __name__ == "__main__":
    main()
