"""The epoch-driven simulation engine (evaluation protocol of Section V).

Protocol per evaluation epoch ``t``:

1. Accounts appearing for the first time are placed by the allocator's
   new-account rule (hash methods hash them, graph methods randomise,
   Mosaic clients choose for themselves).
2. The epoch's transactions are processed under the mapping computed at
   the end of epoch ``t - 1``; the effectiveness metrics are recorded
   ("evaluation metrics are calculated using the data from the current
   epoch based on the allocation results computed at the end of the
   preceding epoch").
3. The allocator updates the mapping for epoch ``t + 1``. It sees the
   epoch's committed transactions plus, as its workload oracle, the
   mempool of pending transactions — the next epoch's batch in
   ``lookahead`` mode (the paper's setup) or the current epoch's batch
   in ``trailing`` mode (ablation).

The loop is columnar end to end: every epoch is a
:class:`TransactionBatch` window streamed off a
:class:`~repro.data.source.TraceSource`, the metrics classify each
batch once (:func:`~repro.sim.metrics.epoch_metrics`), and no
per-transaction Python object is ever
materialised on this path. :class:`Simulation` is the one front end,
whether the source is a CSV extract or an already-materialised
:class:`Trace`.

**Unified execution.** With ``execute_values=True`` the same loop also
drives the chain substrate: a :class:`~repro.chain.ledger.Ledger` with
a :class:`~repro.chain.crossshard.CrossShardExecutor` executes every
epoch's value transfers (withdraw/receipt/deposit) between per-shard
state stores, and the allocator's mapping changes become beacon-chain
migration requests whose state movement rides
:class:`~repro.chain.epoch.EpochReconfigurator` — one loop producing
both the effectiveness metrics and the executed-value metrics
(:class:`EpochRecord`'s ``executed_transactions``, ``settled_volume``,
``in_flight_receipts``, ``overdraft_aborts``). The metrics path is
byte-for-byte the code that runs with the flag off, so effectiveness
numbers are bit-identical between the two modes.

**Telemetry.** Everything else the substrate measures per epoch — bus
traffic, drops, retransmissions, refunds, receipt staleness,
conservation drift, compactions — goes into one channel,
:attr:`EpochRecord.counters`, keyed by layer (``chain.netsim.*``,
``chain.crossshard.*``, ``chain.state.*``). A new counter is one
``counters`` write plus, if the summary should report it, one row of
:data:`repro.sim.recorder.NETWORK_SUMMARY`.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from itertools import chain as iter_chain
from math import fsum
from typing import (
    BinaryIO,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.allocation.base import Allocator, UpdateContext
from repro.chain.mapping import ShardMapping
from repro.chain.params import ProtocolParams
from repro.chain.transaction import TransactionBatch
from repro.data.sizing import SizingIndex, sizing_pass
from repro.data.source import EpochStream, MaterialisedTraceSource, TraceSource
from repro.data.trace import EpochView, Trace
from repro.errors import SimulationError
from repro.sim.metrics import epoch_metrics
from repro.util.validation import check_in_range

ORACLE_LOOKAHEAD = "lookahead"
ORACLE_TRAILING = "trailing"

#: Genesis-funding modes for the unified engine. ``uniform`` mints the
#: same ``initial_balance`` to every account (the legacy default that
#: keeps executed goldens untouched); ``observed`` derives per-account
#: balances from the trace's value flow (one vectorised sufficiency
#: pass, see :func:`repro.chain.economics.observed_funding_balances`),
#: so a replayed trace settles its recorded economics with zero
#: overdraft aborts.
FUNDING_UNIFORM = "uniform"
FUNDING_OBSERVED = "observed"
FUNDING_MODES = (FUNDING_UNIFORM, FUNDING_OBSERVED)

#: The null network model: receipts settle on the exact relay schedule,
#: bit-identical to the pre-netsim direct-call path (the default).
NETWORK_IDEAL = "ideal"


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of one simulation run.

    ``execute_values`` switches on the unified engine: the epoch loop
    additionally executes value transfers through the cross-shard
    executor and moves account state with reconfiguration, on the
    dense per-shard state stores of :mod:`repro.chain.state`
    (``state_backend`` accepts only ``"dense"``);
    ``funding`` selects the genesis supply (``"uniform"`` — the legacy
    default, every account minted ``initial_balance`` — or
    ``"observed"`` — per-account balances derived from the trace's
    value flow, the value-faithful replay mode); ``relay_delay_blocks``
    is the receipt relay latency; ``beacon_spill_dir`` spills the
    beacon chain's committed-MR log to on-disk segments
    (:class:`~repro.chain.segments.SegmentedCommitLog`) instead of
    holding every committed batch in memory. All of these are ignored
    while ``execute_values`` is off, keeping metrics-only runs (and
    their goldens) untouched.

    The history split is placed either *relatively* —
    ``history_fraction`` of the rows, default 0.9, which needs the
    total row count — or *absolutely* — the first ``history_epochs``
    ``tau``-block epochs, which doesn't. Setting both is a
    configuration error.
    """

    params: ProtocolParams
    history_fraction: Optional[float] = None
    history_epochs: Optional[int] = None
    max_epochs: Optional[int] = None
    oracle_mode: str = ORACLE_LOOKAHEAD
    execute_values: bool = False
    # One value only: the frozen benchmarks/e2e/e2e_bench.py passes it.
    state_backend: str = "dense"
    initial_balance: float = 100.0
    relay_delay_blocks: int = 1
    funding: str = FUNDING_UNIFORM
    beacon_spill_dir: Optional[str] = None
    #: Which simulated network receipts ride (see
    #: :mod:`repro.chain.netsim`): ``"ideal"`` (default, settles on
    #: the relay schedule exactly), ``"lan"``, ``"wan"`` or
    #: ``"lossy"``. A non-ideal network requires ``execute_values`` —
    #: there is no message plane to degrade in a metrics-only run.
    network: str = NETWORK_IDEAL
    #: When set, every epoch's reconfiguration ends with a slack-gated
    #: state-store compaction pass (see
    #: :meth:`~repro.chain.state.StateRegistry.compact_stores`): a
    #: store compacts when its free slots exceed ``compact_slack``
    #: times its live population. Requires ``execute_values`` — a
    #: metrics-only run has no state columns to compact.
    compact_slack: Optional[float] = None

    #: Fraction used when neither split knob is set.
    DEFAULT_HISTORY_FRACTION = 0.9

    @property
    def resolved_history_fraction(self) -> float:
        """The effective fraction (0.9 default); unused in epochs mode."""
        if self.history_fraction is None:
            return self.DEFAULT_HISTORY_FRACTION
        return self.history_fraction

    def __post_init__(self) -> None:
        if self.history_fraction is not None and self.history_epochs is not None:
            raise SimulationError(
                "history_fraction and history_epochs are mutually "
                "exclusive ways to place the same split; set at most one"
            )
        if self.history_fraction is not None:
            check_in_range(
                "history_fraction", self.history_fraction, 0.0, 1.0
            )
        if self.history_epochs is not None and self.history_epochs < 0:
            raise SimulationError(
                f"history_epochs must be >= 0, got {self.history_epochs}"
            )
        if self.oracle_mode not in (ORACLE_LOOKAHEAD, ORACLE_TRAILING):
            raise SimulationError(
                f"oracle_mode must be '{ORACLE_LOOKAHEAD}' or "
                f"'{ORACLE_TRAILING}', got {self.oracle_mode!r}"
            )
        if self.max_epochs is not None and self.max_epochs < 1:
            raise SimulationError(
                f"max_epochs must be >= 1, got {self.max_epochs}"
            )
        if self.state_backend != "dense":
            raise SimulationError(
                f"state_backend must be 'dense', got {self.state_backend!r}; "
                "the dict store is a test oracle (tests/state_reference.py)"
            )
        if self.initial_balance < 0:
            raise SimulationError(
                f"initial_balance must be >= 0, got {self.initial_balance}"
            )
        if self.relay_delay_blocks < 0:
            raise SimulationError(
                f"relay_delay_blocks must be >= 0, got {self.relay_delay_blocks}"
            )
        if self.funding not in FUNDING_MODES:
            raise SimulationError(
                f"funding must be one of {FUNDING_MODES}, got {self.funding!r}"
            )
        from repro.chain.netsim import NETWORK_SPEC_NAMES

        if self.network not in NETWORK_SPEC_NAMES:
            raise SimulationError(
                f"network must be one of {NETWORK_SPEC_NAMES}, "
                f"got {self.network!r}"
            )
        if self.network != NETWORK_IDEAL and not self.execute_values:
            raise SimulationError(
                f"network={self.network!r} requires execute_values: "
                "metrics-only runs have no message plane to degrade"
            )
        if self.compact_slack is not None:
            if self.compact_slack < 0:
                raise SimulationError(
                    f"compact_slack must be >= 0, got {self.compact_slack}"
                )
            if not self.execute_values:
                raise SimulationError(
                    "compact_slack requires execute_values: metrics-only "
                    "runs have no state columns to compact"
                )


@dataclass
class EpochRecord:
    """Per-epoch measurements.

    The executed-value fields stay at their zero defaults in
    metrics-only runs; with ``execute_values`` on they carry the
    substrate's view of the same epoch: transfers actually committed,
    value settled by receipt deposits, receipts still in flight at the
    epoch boundary, and transfers aborted on insufficient balance.

    ``counters`` is the substrate's telemetry channel: layer-named
    counters such as ``chain.netsim.retransmissions`` or
    ``chain.state.compactions``, written by :class:`ExecutionSubstrate`
    for every executed epoch and empty in metrics-only runs. The
    run summary reduces them through
    :data:`repro.sim.recorder.NETWORK_SUMMARY`.
    """

    epoch: int
    transactions: int
    cross_shard_ratio: float
    workload_deviation: float
    normalized_throughput: float
    execution_time: float
    unit_time: float
    input_bytes: float
    migrations: int
    proposed_migrations: int
    new_accounts: int
    executed_transactions: int = 0
    settled_volume: float = 0.0
    in_flight_receipts: int = 0
    overdraft_aborts: int = 0
    counters: Dict[str, float] = field(default_factory=dict)


@dataclass
class SimulationResult:
    """Aggregated outcome of one run."""

    allocator_name: str
    params: ProtocolParams
    records: List[EpochRecord] = field(default_factory=list)
    #: True when the run drove the unified engine (value execution).
    execute_values: bool = False
    #: The network spec receipts rode ("ideal" unless configured).
    network: str = NETWORK_IDEAL

    def _mean(self, attribute: str, weighted: bool = False) -> float:
        if not self.records:
            return 0.0
        values = np.array([getattr(r, attribute) for r in self.records])
        if weighted:
            weights = np.array([r.transactions for r in self.records], dtype=float)
            if weights.sum() == 0:
                return 0.0
            return float(np.average(values, weights=weights))
        return float(values.mean())

    @property
    def epochs(self) -> int:
        return len(self.records)

    @property
    def mean_cross_shard_ratio(self) -> float:
        """Transaction-weighted average cross-shard ratio."""
        return self._mean("cross_shard_ratio", weighted=True)

    @property
    def mean_workload_deviation(self) -> float:
        return self._mean("workload_deviation")

    @property
    def mean_normalized_throughput(self) -> float:
        return self._mean("normalized_throughput")

    @property
    def mean_execution_time(self) -> float:
        return self._mean("execution_time")

    @property
    def mean_unit_time(self) -> float:
        return self._mean("unit_time")

    @property
    def mean_input_bytes(self) -> float:
        return self._mean("input_bytes")

    @property
    def total_migrations(self) -> int:
        return int(sum(r.migrations for r in self.records))

    @property
    def total_proposed_migrations(self) -> int:
        return int(sum(r.proposed_migrations for r in self.records))

    @property
    def total_transactions(self) -> int:
        return int(sum(r.transactions for r in self.records))

    # -- executed-value aggregates (zero in metrics-only runs) -----------------

    @property
    def total_executed_transactions(self) -> int:
        return int(sum(r.executed_transactions for r in self.records))

    @property
    def total_settled_volume(self) -> float:
        return fsum(r.settled_volume for r in self.records)

    @property
    def total_overdraft_aborts(self) -> int:
        return int(sum(r.overdraft_aborts for r in self.records))

    @property
    def final_in_flight_receipts(self) -> int:
        """Receipts still pending after the last recorded epoch."""
        if not self.records:
            return 0
        return self.records[-1].in_flight_receipts

    # -- counter views (zero without execution) -------------------------------

    def counter_total(self, key: str) -> int:
        """``counters[key]`` summed over every record (absent counts 0)."""
        return int(sum(r.counters.get(key, 0) for r in self.records))

    @property
    def total_delivered_messages(self) -> int:
        return self.counter_total("chain.netsim.delivered_messages")

    @property
    def total_dropped_messages(self) -> int:
        return self.counter_total("chain.netsim.dropped_messages")

    @property
    def total_retransmissions(self) -> int:
        return self.counter_total("chain.netsim.retransmissions")

    @property
    def total_timeout_refunds(self) -> int:
        return self.counter_total("chain.netsim.timeout_refunds")


class ExecutionSubstrate:
    """The chain substrate the unified engine drives per epoch.

    Owns a :class:`~repro.chain.ledger.Ledger` — the paper's
    ``L = (S_1, ..., S_k, BC)``: a
    :class:`~repro.chain.crossshard.CrossShardExecutor` over per-shard
    state stores, the beacon chain and the epoch reconfigurator. The
    engine drives it through four calls per executed epoch:
    ``execute_epoch``, then ``submit_migration_batch``,
    ``commit_migrations`` and ``reconfigure`` with the engine's epoch
    index. The stores are genesis-funded either with a uniform
    supply (the legacy default) or with caller-supplied per-account
    balances (``funding_balances`` — the engine derives them from the
    trace's observed value flow in ``funding="observed"`` mode, through
    the sizing pass). The substrate keeps
    its *own* mapping object — synchronised to the engine's
    value-for-value — so the metrics path's object flow (and thus its
    numbers) is untouched by execution. It needs only the universe
    *size*, never a materialised trace.
    """

    def __init__(
        self,
        n_accounts: int,
        mapping: ShardMapping,
        config: SimulationConfig,
        funding_balances: Optional[np.ndarray] = None,
    ) -> None:
        # Local imports keep the metrics-only engine free of the chain
        # execution layer (and its import cost) unless the flag is on.
        from repro.chain.crossshard import CrossShardExecutor
        from repro.chain.ledger import Ledger
        from repro.chain.netsim import NetworkModel
        from repro.chain.state import StateRegistry
        from repro.util.rng import derive_seed

        if config.funding == FUNDING_OBSERVED and funding_balances is None:
            raise SimulationError(
                "funding='observed' requires funding_balances (the engine "
                "derives them from the trace before building the substrate)"
            )
        self.config = config
        self.mapping = mapping.copy()
        self.registry = StateRegistry(config.params.k, n_accounts=n_accounts)
        # Receipts ride the message plane; the default ideal model
        # settles them on the relay schedule exactly.
        self.network = NetworkModel(
            config.network, seed=derive_seed(config.params.seed, "netsim")
        )
        self.executor = CrossShardExecutor(
            self.registry,
            self.mapping,
            relay_delay_blocks=config.relay_delay_blocks,
            network=self.network,
        )
        self._bus_mark = self.executor.network_transport.bus.stats.snapshot()
        beacon = None
        if config.beacon_spill_dir is not None:
            from repro.chain.beacon import BeaconChain

            beacon = BeaconChain(spill_dir=config.beacon_spill_dir)
        self.ledger = Ledger(
            config.params,
            self.executor,
            beacon=beacon,
            compact_slack=config.compact_slack,
        )
        accounts = np.arange(n_accounts, dtype=np.int64)
        if funding_balances is not None:
            self.executor.fund_many(accounts, funding_balances)
            self.genesis_supply = float(
                np.sum(funding_balances, dtype=np.float64)
            )
        else:
            self.executor.fund_many(accounts, config.initial_balance)
            self.genesis_supply = float(n_accounts) * config.initial_balance

    def total_value(self) -> float:
        """Resident balances + in-flight receipts + collected fees
        (conserved against the genesis supply)."""
        return self.executor.total_value()

    def place_new_accounts(
        self, accounts: np.ndarray, shards: np.ndarray
    ) -> None:
        """Mirror first-seen placements: update phi and move state."""
        self.mapping.assign_many(accounts, shards)
        self.registry.migrate_batch(accounts, shards)

    def execute_epoch(
        self, batch: TransactionBatch, counters: Dict[str, float]
    ) -> Tuple[int, float, int, int]:
        """Run the epoch's transfers and write its telemetry to ``counters``.

        Returns the executed-value metrics: transfers executed, value
        settled, receipts in flight, overdraft aborts. The bus counters
        are always written (the ideal model counts traffic too, it just
        never degrades it); receipt staleness and the conservation
        drift (|total value - genesis supply|) only under a non-ideal
        network, whose refund and dedup paths are the ones worth
        auditing every epoch.
        """
        from repro.chain.netsim import MSG_GOSSIP, OMEGA_ENTRY_BYTES
        from repro.sim.metrics import staleness_p99

        executed = aborts = duplicates = refunds = 0
        settled = 0.0
        latency_sum = latency_count = last_block = 0
        for report in self.ledger.execute_epoch(batch):
            executed += report.intra_executed + report.withdraws
            settled += report.settled_value
            aborts += report.failed
            duplicates += report.duplicates_deduped
            refunds += report.refunds_settled
            latency_sum += sum(report.relay_latencies)
            latency_count += len(report.relay_latencies)
            last_block = report.block
        in_flight = self.executor.in_flight_count()

        # Workload-vector gossip: each shard floods its Omega entries to
        # every other shard once per epoch (the traffic clients' Omega
        # downloads ride in the paper's model). Under the ideal model
        # these are pure counter bumps.
        transport = self.executor.network_transport
        bus = transport.bus
        k = self.config.params.k
        src, dst = np.nonzero(~np.eye(k, dtype=bool))
        bus.send_many(
            MSG_GOSSIP,
            src,
            dst,
            max(last_block, bus.clock),
            size_bytes=float(OMEGA_ENTRY_BYTES * k),
        )

        _, delivered, dropped, retrans, _, _ = bus.stats.snapshot()
        _, m_delivered, m_dropped, m_retrans, _, _ = self._bus_mark
        self._bus_mark = bus.stats.snapshot()
        counters.update(
            {
                "chain.netsim.delivered_messages": delivered - m_delivered,
                "chain.netsim.dropped_messages": dropped - m_dropped,
                "chain.netsim.retransmissions": retrans - m_retrans,
                "chain.netsim.duplicate_deliveries": duplicates,
                "chain.netsim.timeout_refunds": refunds,
                "chain.netsim.confirmation_latency_blocks": (
                    latency_sum / latency_count if latency_count else 0.0
                ),
            }
        )
        if not self.network.is_ideal:
            counters["chain.netsim.receipt_staleness_p99"] = staleness_p99(
                transport.drain_staleness()
            )
            counters["chain.crossshard.conservation_drift"] = abs(
                self.total_value() - self.genesis_supply
            )
        return executed, settled, in_flight, aborts

    def reconfigure(
        self, epoch: int, target: ShardMapping, counters: Dict[str, float]
    ) -> None:
        """Commit the allocator's mapping update as beacon MRs.

        Every account whose shard changed becomes one row of a columnar
        :class:`~repro.chain.migration.MigrationRequestBatch` (no
        per-account request objects); the uncapped commitment round
        plus batched reconfiguration applies them to the substrate's
        phi *and* moves the account state between stores as grouped
        gather/scatter in the same pass (Section III-B-2 semantics) —
        after which the substrate's mapping equals ``target`` value for
        value. Writes ``chain.state.compactions``, the stores this
        epoch's slack-gated compaction pass compacted, to ``counters``.
        """
        from repro.chain.migration import MigrationRequestBatch

        moved = self.mapping.diff(target)
        batch = MigrationRequestBatch(
            moved,
            self.mapping.as_array()[moved],
            target.as_array()[moved],
            epoch=epoch,
        )
        self.ledger.submit_migration_batch(batch)
        self.ledger.commit_migrations(epoch, capacity=None)
        compactions = self.registry.compaction_count
        self.ledger.reconfigure(epoch)
        counters["chain.state.compactions"] = (
            self.registry.compaction_count - compactions
        )


def _run_epoch_loop(
    views: "Iterable[EpochView]",
    mapping: ShardMapping,
    seen: np.ndarray,
    allocator: Allocator,
    config: SimulationConfig,
    substrate: Optional[ExecutionSubstrate],
    result: SimulationResult,
    on_record: Optional[Callable[[EpochRecord], None]] = None,
) -> None:
    """The evaluation loop of :class:`Simulation`.

    Consumes epoch views from any iterable — an
    :class:`~repro.data.source.EpochStream` in production, a
    :meth:`Trace.epochs` generator in the test oracle — holding exactly
    two views at a time (current + lookahead), so memory is O(window)
    regardless of horizon. Empty views are skipped for processing but
    still occupy lookahead positions, and the lookahead mempool is the
    *next view's batch object*, empty or not.

    ``mapping`` is the initial allocation; each epoch's update replaces
    it. ``seen`` marks the accounts already placed (the history's) and
    is updated in place as new accounts appear.
    """
    params = config.params
    empty = TransactionBatch.empty()

    iterator = iter(views)
    current = next(iterator, None)
    nxt = next(iterator, None) if current is not None else None

    while current is not None:
        view = current
        batch = view.batch
        if len(batch) == 0:
            current, nxt = nxt, next(iterator, None)
            continue
        if config.oracle_mode == ORACLE_LOOKAHEAD:
            mempool = nxt.batch if nxt is not None else empty
        else:
            mempool = batch

        capacity = params.derive_capacity(len(batch))

        # 1. Place accounts never seen before.
        touched = batch.touched_accounts()
        new_ids = touched[~seen[touched]]
        if len(new_ids):
            placement_context = UpdateContext(
                epoch=view.index,
                params=params,
                committed=empty,
                mempool=batch,
                capacity=capacity,
            )
            placements = allocator.place_new_accounts(
                new_ids, mapping, placement_context
            )
            mapping.assign_many(new_ids, placements)
            seen[new_ids] = True
            if substrate is not None:
                substrate.place_new_accounts(new_ids, placements)

        # 2. Metrics under the previous epoch's allocation.
        ratio, deviation, norm_throughput, _ = epoch_metrics(
            batch, mapping, params.eta, capacity
        )

        # 2b. Value execution under the same allocation (unified
        # engine): the substrate's mapping equals the engine's at
        # this point, so classification matches the metrics above.
        counters: Dict[str, float] = {}
        executed, settled, in_flight, aborts = (
            substrate.execute_epoch(batch, counters)
            if substrate is not None
            else (0, 0.0, 0, 0)
        )

        # 3. Allocator update for the next epoch.
        context = UpdateContext(
            epoch=view.index,
            params=params,
            committed=batch,
            mempool=mempool,
            capacity=capacity,
        )
        update = allocator.update(mapping, context)
        if update.mapping.k != params.k:
            raise SimulationError("allocator changed k during update")
        if substrate is not None:
            substrate.reconfigure(view.index, update.mapping, counters)
        mapping = update.mapping

        record = EpochRecord(
            epoch=view.index,
            transactions=len(batch),
            cross_shard_ratio=ratio,
            workload_deviation=deviation,
            normalized_throughput=norm_throughput,
            execution_time=update.execution_time,
            unit_time=update.unit_time,
            input_bytes=update.input_bytes,
            migrations=update.migrations,
            proposed_migrations=update.proposed_migrations,
            new_accounts=len(new_ids),
            executed_transactions=executed,
            settled_volume=settled,
            in_flight_receipts=in_flight,
            overdraft_aborts=aborts,
            counters=counters,
        )
        result.records.append(record)
        if on_record is not None:
            on_record(record)
        current, nxt = nxt, next(iterator, None)


def _initial_mapping(
    allocator: Allocator,
    history: Trace,
    params: ProtocolParams,
    n_accounts: int,
) -> ShardMapping:
    """Initialise the allocator over the history and validate the result."""
    mapping = allocator.initialize(history, params)
    if mapping.k != params.k:
        raise SimulationError(
            f"allocator produced k={mapping.k}, expected {params.k}"
        )
    if mapping.n_accounts < n_accounts:
        raise SimulationError(
            "allocator's initial mapping must cover the account universe "
            f"({mapping.n_accounts} < {n_accounts})"
        )
    return mapping


#: :class:`TransactionBatch` columns in constructor order.
_BATCH_COLUMNS = ("senders", "receivers", "blocks", "values", "fees")


class _ChunkSpool:
    """On-disk copy of one pass over a chunk stream, for one replay.

    :meth:`record` passes the chunks through unchanged and appends each
    one to ``file`` as a presence mask of its columns followed by every
    present column (``np.save``), so the replay keeps the pass's chunk
    boundaries, order and absent ``values``/``fees`` columns.
    :meth:`replay` seeks back to the start and loads them one at a
    time: nothing spooled stays in memory. The caller owns ``file``; a
    failed read raises.
    """

    def __init__(self, file: BinaryIO) -> None:
        self._file = file
        self._n_chunks = 0

    def record(
        self, chunks: Iterable[TransactionBatch]
    ) -> Iterator[TransactionBatch]:
        for chunk in chunks:
            columns = [getattr(chunk, name) for name in _BATCH_COLUMNS]
            np.save(self._file, np.array([c is not None for c in columns]))
            for column in columns:
                if column is not None:
                    np.save(self._file, column)
            self._n_chunks += 1
            yield chunk

    def replay(self) -> Iterator[TransactionBatch]:
        self._file.seek(0)
        for _ in range(self._n_chunks):
            present = np.load(self._file).tolist()
            yield TransactionBatch(
                *(np.load(self._file) if here else None for here in present)
            )


def _consume_history_fraction(
    chunks: "Iterator[TransactionBatch]", cut: int
) -> "Tuple[List[TransactionBatch], Optional[TransactionBatch]]":
    """Take ``Trace.split``'s head off a chunk stream, chunk by chunk.

    Returns the history chunks plus the first leftover slice (None when
    the stream was exhausted or nothing was consumed). Replicates the
    materialised split exactly: rows up to ``cut``, then forward to the
    next block boundary — rows equal to the boundary block form a
    sorted prefix of the remainder, consumed via ``searchsorted``.
    """
    history: List[TransactionBatch] = []
    if cut <= 0:
        return history, None
    taken = 0
    for chunk in chunks:
        n = len(chunk)
        if n == 0:
            continue
        if taken + n < cut:
            history.append(chunk)
            taken += n
            continue
        split_at = cut - taken
        boundary = int(chunk.blocks[split_at - 1])
        stop = int(np.searchsorted(chunk.blocks, boundary, side="right"))
        history.append(chunk[:stop])
        if stop < n:
            return history, chunk[stop:]
        for chunk2 in chunks:
            stop2 = int(np.searchsorted(chunk2.blocks, boundary, side="right"))
            if stop2:
                history.append(chunk2[:stop2])
            if stop2 < len(chunk2):
                return history, chunk2[stop2:]
        return history, None
    return history, None


def _consume_history_epochs(
    chunks: "Iterator[TransactionBatch]", tau: int, n_epochs: int
) -> "Tuple[List[TransactionBatch], Optional[TransactionBatch]]":
    """Take ``Trace.split_epochs``'s head off a chunk stream.

    The head is every row with ``block < first_block + n_epochs * tau``
    — an absolute boundary needing no total row count.
    """
    history: List[TransactionBatch] = []
    boundary: Optional[int] = None
    for chunk in chunks:
        if len(chunk) == 0:
            continue
        if boundary is None:
            boundary = int(chunk.blocks[0]) + n_epochs * tau
        stop = int(np.searchsorted(chunk.blocks, boundary, side="left"))
        if stop:
            history.append(chunk[:stop])
        if stop < len(chunk):
            return history, chunk[stop:]
    return history, None


class Simulation:
    """Drives one allocator over one trace source under one configuration.

    ``data`` is any :class:`~repro.data.source.TraceSource`; a
    materialised :class:`Trace` is wrapped in a
    :class:`~repro.data.source.MaterialisedTraceSource`. The run never
    materialises the trace: it consumes epochs from
    :class:`~repro.data.source.EpochStream` one window at a time, so the
    loop's working set is the history prefix plus two epoch views.
    Two ingest protocols, picked automatically:

    * **count-prefixed fast path** — the source knows its length up
      front (:meth:`~repro.data.source.TraceSource.size_hint`): one
      streaming pass, history split placed from the known count;
    * **sizing pass + spool replay** — length unknown (CSV): the
      sizing pass decodes every row once, counting rows, resolving the
      account universe and accumulating the funding partials, and
      spools each decoded chunk to one anonymous temporary file (see
      :class:`_ChunkSpool`); the spool then replays through the history
      split into the epoch loop. A materialised source that needs
      observed funding sizes over its chunks and re-iterates them
      (numpy views), spooling nothing.

    The eager protocol (``Trace.split`` + ``Trace.epochs`` + eager
    observed funding) lives on as the test oracle
    ``tests/engine_reference.py``; ``tests/test_streaming_engine.py``
    pins bit-exact equality with it — same epoch records, state roots
    and settlement order. ``on_record`` is called with each epoch
    record right after it is appended to the result.
    """

    def __init__(
        self,
        data: Union[TraceSource, Trace],
        allocator: Allocator,
        config: SimulationConfig,
        on_record: Optional[Callable[[EpochRecord], None]] = None,
    ) -> None:
        if isinstance(data, Trace):
            data = MaterialisedTraceSource(data)
        self.source = data
        self.allocator = allocator
        self.config = config
        self.on_record = on_record
        #: The chain substrate of the last ``execute_values`` run
        #: (None before run() or in metrics-only mode) — exposed for
        #: conservation checks and state inspection.
        self.substrate: Optional[ExecutionSubstrate] = None

    def run(self) -> SimulationResult:
        """Size the run, then stream it; a CSV row is decoded once."""
        config = self.config
        need_funding = (
            config.execute_values and config.funding == FUNDING_OBSERVED
        )
        hint = self.source.size_hint()
        if hint is not None and not need_funding:
            total_rows, n_accounts = hint
            return self._run_stream(
                iter(self.source.chunks()), total_rows, n_accounts, None
            )

        def run_sized(
            index: SizingIndex, chunks: Iterable[TransactionBatch]
        ) -> SimulationResult:
            return self._run_stream(
                iter(chunks),
                index.n_rows,
                index.n_accounts,
                index.partials if need_funding else None,
            )

        if hint is not None:
            # Materialised chunks are numpy views: both passes are free.
            return run_sized(
                sizing_pass(self.source.chunks(), self.source),
                self.source.chunks(),
            )
        # The source decodes: spool the sizing pass and replay the
        # spool. The spool file is unlinked at creation, so the kernel
        # frees it however the run ends — at the end of the trace, at
        # max_epochs with the replay unfinished, on an exception or on
        # a signal that kills the process.
        with tempfile.TemporaryFile(prefix="repro-spool-") as file:
            spool = _ChunkSpool(file)
            index = sizing_pass(
                spool.record(self.source.chunks()), self.source
            )
            return run_sized(index, spool.replay())

    def _run_stream(
        self,
        chunks: Iterator[TransactionBatch],
        total_rows: int,
        n_accounts: int,
        funding: Optional[np.ndarray],
    ) -> SimulationResult:
        """History split → initial mapping → epoch stream → epoch loop.

        ``total_rows`` places the fractional split (unused when
        ``history_epochs`` places it).
        """
        config = self.config
        params = config.params
        if config.history_epochs is not None:
            history_chunks, leftover = _consume_history_epochs(
                chunks, params.tau, config.history_epochs
            )
        else:
            cut = int(round(total_rows * config.resolved_history_fraction))
            history_chunks, leftover = _consume_history_fraction(
                chunks, max(0, min(total_rows, cut))
            )
        history = Trace(
            TransactionBatch.concat_many(history_chunks)
            if history_chunks
            else TransactionBatch.empty(),
            n_accounts=n_accounts,
        )
        mapping = _initial_mapping(self.allocator, history, params, n_accounts)

        substrate: Optional[ExecutionSubstrate] = None
        if config.execute_values:
            substrate = ExecutionSubstrate(n_accounts, mapping, config, funding)
            self.substrate = substrate

        seen = np.zeros(mapping.n_accounts, dtype=bool)
        seen[history.active_accounts()] = True

        evaluation = EpochStream(
            iter_chain([leftover] if leftover is not None else [], chunks),
            params.tau,
            config.max_epochs,
        )
        result = SimulationResult(
            allocator_name=self.allocator.name,
            params=params,
            execute_values=config.execute_values,
            network=config.network,
        )
        _run_epoch_loop(
            evaluation,
            mapping,
            seen,
            self.allocator,
            config,
            substrate,
            result,
            on_record=self.on_record,
        )
        return result


#: Alias for callers that import the old name (the end-to-end benchmark
#: harness under ``benchmarks/e2e``).
StreamingSimulation = Simulation
