"""Walk through Figure 2: the full life of an account migration.

Reproduces the paper's toy example — k = 2 shards, epochs of tau = 2
blocks — driving the real chain substrate objects step by step:

1. a client on shard 2 proposes intra-/cross-shard transactions and a
   migration request;
2. shard miners commit transactions into shard blocks while the beacon
   committee commits the migration request into a beacon block;
3. at the epoch reconfiguration, miners sync the beacon chain, update
   their local mapping ``phi``, reshuffle, and migrate account state.

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
from repro.chain import MigrationRequestBatch

ALICE, BOB, CAROL, DAVE = 0, 1, 2, 3


def main() -> None:
    params = ProtocolParams(k=2, eta=2.0, tau=2, seed=1)

    # Alice starts on shard 1 (the paper's "originally in shard 2" —
    # shard ids are 0-based here); her friends live on shard 0.
    mapping = ShardMapping(np.array([1, 0, 0, 1]), k=2)
    ledger = Ledger(params, mapping, miners_per_shard=3)
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
    stats = ledger.process_epoch(epoch_txs)
    print(
        f"epoch 0 committed: {stats.intra_shard} intra-shard, "
        f"{stats.cross_shard} cross-shard transactions"
    )
    ledger.submit_migration_batch(
        MigrationRequestBatch.from_requests([request])
    )
    report = ledger.commit_migrations(capacity=int(params.derive_capacity(4)))
    print(
        f"beacon chain committed {report.committed_count} migration "
        f"request(s) in block {len(ledger.beacon) - 1}"
    )

    # --- Migration phase (epoch reconfiguration) ----------------------------------
    reconfig = ledger.reconfigure()
    print(
        f"reconfiguration: {reconfig.migrations_applied} account(s) migrated, "
        f"{reconfig.reshuffle.moved_count} miner(s) reshuffled, "
        f"{reconfig.total_communication_bytes:.0f} bytes synchronised"
    )
    print(
        "allocation after epoch 0: "
        f"{dict(enumerate(ledger.mapping.as_array().tolist()))}"
    )
    assert ledger.mapping.shard_of(ALICE) == decision.best_shard

    # Afterwards Alice's transactions with Bob and Carol are intra-shard.
    followup = TransactionBatch.from_transactions(
        [
            Transaction(ALICE, BOB, block=2),
            Transaction(ALICE, CAROL, block=3),
        ]
    )
    stats = ledger.process_epoch(followup)
    print(
        f"epoch 1: {stats.intra_shard}/{stats.total_transactions} "
        "transactions are now intra-shard"
    )
    ledger.beacon.verify()
    for shard in ledger.shards:
        shard.verify()
    print("all chains verified — hash links intact")


if __name__ == "__main__":
    main()
