"""The unified engine: one loop for effectiveness metrics AND execution.

With ``execute_values=True`` the epoch loop additionally drives the
chain substrate (cross-shard executor, receipt settlement, beacon-MR
state migration). The contracts pinned here:

* effectiveness metrics are **bit-identical** to metrics-only mode —
  execution observes the simulation, it never perturbs it;
* value is conserved through the whole run (genesis supply ==
  resident balances + in-flight receipts, exactly for integer-valued
  supplies);
* the dense state store reproduces the per-shard state roots and
  result totals recorded from the dict-store engine run it replaced;
* the executed-value fields only exist where they mean something
  (summaries, engine modes);
* beacon blocks carry the engine's epoch index, empty epochs included;
* every migration an allocator commits is committed on the beacon, one
  block per executed epoch.
"""

import numpy as np
import pytest

from repro.allocation.hash_based import HashAllocator
from repro.allocation.metis_like import MetisLikeAllocator
from repro.chain.params import ProtocolParams
from repro.chain.transaction import TransactionBatch
from repro.core.mosaic import MosaicAllocator
from repro.data.trace import Trace
from repro.errors import SimulationError
from repro.experiments import ALLOCATOR_BUILDERS
from repro.sim.engine import Simulation, SimulationConfig, SimulationResult
from repro.sim.recorder import summarize_results

EFFECTIVENESS_FIELDS = (
    "epoch",
    "transactions",
    "cross_shard_ratio",
    "workload_deviation",
    "normalized_throughput",
    "input_bytes",
    "migrations",
    "proposed_migrations",
    "new_accounts",
)

EXECUTED_FIELDS = (
    "executed_transactions",
    "settled_volume",
    "in_flight_receipts",
    "overdraft_aborts",
)


def _effectiveness(result):
    return [
        tuple(getattr(r, f) for f in EFFECTIVENESS_FIELDS)
        for r in result.records
    ]


@pytest.fixture(scope="module")
def engine_params():
    return ProtocolParams(k=4, eta=2.0, tau=50, seed=11)


class TestBitIdenticalEffectiveness:
    @pytest.mark.parametrize("allocator_factory", [MosaicAllocator, HashAllocator])
    def test_executed_mode_matches_metrics_only(
        self, tiny_trace, engine_params, allocator_factory
    ):
        plain = Simulation(
            tiny_trace,
            allocator_factory(),
            SimulationConfig(params=engine_params),
        ).run()
        executed = Simulation(
            tiny_trace,
            allocator_factory(),
            SimulationConfig(params=engine_params, execute_values=True),
        ).run()
        assert _effectiveness(executed) == _effectiveness(plain)

    def test_metrics_only_records_have_zero_executed_fields(
        self, tiny_trace, engine_params
    ):
        result = Simulation(
            tiny_trace, HashAllocator(), SimulationConfig(params=engine_params)
        ).run()
        for record in result.records:
            for field in EXECUTED_FIELDS:
                assert getattr(record, field) == 0

    def test_metrics_only_records_have_empty_counters(
        self, tiny_trace, engine_params
    ):
        result = Simulation(
            tiny_trace, HashAllocator(), SimulationConfig(params=engine_params)
        ).run()
        assert result.records
        assert all(record.counters == {} for record in result.records)


class TestExecutedMetrics:
    def test_executed_fields_are_populated(self, tiny_trace, engine_params):
        result = Simulation(
            tiny_trace,
            MosaicAllocator(),
            SimulationConfig(params=engine_params, execute_values=True),
        ).run()
        assert result.execute_values
        assert result.total_executed_transactions > 0
        assert result.total_settled_volume > 0
        assert result.final_in_flight_receipts >= 0
        # Executed work cannot exceed the observed transactions.
        for record in result.records:
            assert (
                record.executed_transactions + record.overdraft_aborts
                <= record.transactions
            )

    def test_underfunded_run_records_overdraft_aborts(
        self, tiny_trace, engine_params
    ):
        sim = Simulation(
            tiny_trace,
            HashAllocator(),
            SimulationConfig(
                params=engine_params,
                execute_values=True,
                initial_balance=0.0,
            ),
        )
        result = sim.run()
        # Every account starts penniless: every transfer of value 1
        # must abort, nothing settles, nothing stays in flight.
        assert result.total_executed_transactions == 0
        assert result.total_overdraft_aborts == result.total_transactions
        assert result.total_settled_volume == 0.0
        assert sim.substrate.total_value() == 0.0


class TestConservation:
    def test_value_conserved_through_full_run(self, tiny_trace, engine_params):
        sim = Simulation(
            tiny_trace,
            MosaicAllocator(),
            SimulationConfig(params=engine_params, execute_values=True),
        )
        sim.run()
        substrate = sim.substrate
        # Integer-valued supply and unit transfers: exact, not approx.
        assert substrate.total_value() == substrate.genesis_supply
        # Flushing every pending receipt must not mint or burn either.
        substrate.executor.settle_all(
            from_block=int(tiny_trace.batch.blocks.max()) + 1
        )
        assert substrate.total_value() == substrate.genesis_supply
        assert substrate.executor.in_flight_value() == 0.0


#: The dict-store engine run of ``TestBackendEquivalenceEndToEnd``,
#: recorded before the dict store left production: per-shard state
#: roots and result totals of Mosaic over ``tiny_trace`` at k=4.
DICT_RUN_STATE_ROOTS = (
    "0x94a4a3390ad6e9c4884f715e91c7ff6777313d293cad0529fc46e796e82df108",
    "0xf4960a5a18d232a93cc61ee5707377edbf2e36115ea85960697f54eebc398ef3",
    "0x37c7785677f5c295d11d6736a122ceac2afa15a74f37a0819e3e095ff148d491",
    "0x058d3f715daef506e56b1bae0365d242b6c4f4e575293e5d0364947b8b437c33",
)
DICT_RUN_TOTALS = {
    "epochs": 2,
    "total_transactions": 598,
    "total_executed_transactions": 598,
    "total_settled_volume": 457.0,
    "total_overdraft_aborts": 0,
    "final_in_flight_receipts": 5,
    "total_migrations": 119,
    "total_proposed_migrations": 345,
    "mean_cross_shard_ratio": 0.7725752508361204,
    "mean_workload_deviation": 0.2801426218536038,
    "mean_normalized_throughput": 1.1114452421818397,
    "mean_input_bytes": 82.08110119047619,
}


class TestBeaconEpochs:
    def test_beacon_blocks_carry_the_engine_epoch(self):
        """Activity on blocks 0-9 and 20-29 with ``tau=5`` leaves two
        empty epochs the loop skips; the beacon blocks after them must
        still be stamped with the engine's epoch, the one their MR
        batches carry."""
        rng = np.random.default_rng(0)
        blocks = np.sort(
            np.concatenate(
                [rng.integers(0, 10, 200), rng.integers(20, 30, 200)]
            )
        )
        senders = rng.integers(0, 40, 400)
        receivers = (senders + 1 + rng.integers(0, 39, 400)) % 40
        trace = Trace(TransactionBatch(senders, receivers, blocks))
        config = SimulationConfig(
            params=ProtocolParams(k=4, eta=2.0, tau=5, seed=3),
            history_epochs=1,
            execute_values=True,
        )
        simulation = Simulation(trace, MetisLikeAllocator(), config)
        result = simulation.run()
        record_epochs = [record.epoch for record in result.records]
        assert record_epochs == [0, 3, 4]
        stamped = [
            (block.header.epoch, block.payload[0].epoch)
            for block in simulation.substrate.ledger.beacon.blocks
            if block.payload
        ]
        assert len(stamped) == 3
        for header_epoch, batch_epoch in stamped:
            assert header_epoch == batch_epoch
            assert header_epoch in record_epochs


class TestMigrationsReachTheBeacon:
    @pytest.mark.parametrize("method", sorted(ALLOCATOR_BUILDERS))
    def test_allocator_commits_equal_beacon_commits(self, tiny_trace, method):
        """The allocator's per-epoch commit (Mosaic's capped round
        included) is what the beacon commits: the substrate re-commits
        the mapping change uncapped and loses or adds no MR."""
        config = SimulationConfig(
            params=ProtocolParams(k=4, eta=2.0, tau=10, seed=0),
            history_epochs=10,
            execute_values=True,
        )
        simulation = Simulation(tiny_trace, ALLOCATOR_BUILDERS[method](0), config)
        result = simulation.run()
        beacon = simulation.substrate.ledger.beacon
        assert len(beacon) == len(result.records) > 0
        assert beacon.committed_count == result.total_migrations
        if method != "hash-random":
            assert result.total_migrations > 0


class TestBackendEquivalenceEndToEnd:
    def test_dict_and_dense_runs_are_identical(self, tiny_trace, engine_params):
        """The dense engine run reproduces the recorded dict-store run
        bit for bit: state roots and every deterministic total."""
        sim = Simulation(
            tiny_trace,
            MosaicAllocator(),
            SimulationConfig(params=engine_params, execute_values=True),
        )
        result = sim.run()
        registry = sim.substrate.registry
        assert tuple(
            registry.store_of(shard).state_root()
            for shard in range(engine_params.k)
        ) == DICT_RUN_STATE_ROOTS
        assert {
            name: getattr(result, name) for name in DICT_RUN_TOTALS
        } == DICT_RUN_TOTALS


class TestSizedStores:
    def test_executed_cell_never_spills(self):
        """The engine sizes its registry to the trace's account universe,
        so every account holds exactly one home — the shard phi names —
        when the run ends."""
        from repro.experiments import preset_matrix

        (cell,) = preset_matrix("realloc-smoke").cells()
        sim = Simulation(
            cell.trace.build(), cell.build_allocator(), cell.simulation_config()
        )
        sim.run()
        substrate = sim.substrate
        registry = substrate.registry
        assert registry.n_accounts == substrate.mapping.n_accounts
        ids = np.arange(registry.n_accounts, dtype=np.int64)
        assert (registry.locate_many(ids) == substrate.mapping.as_array()).all()
        assert sum(len(store) for store in registry.stores) == len(ids)


class TestResultAggregationRegression:
    def test_all_means_are_zero_on_empty_records(self, engine_params):
        """Zero-epoch results must aggregate to 0.0, never divide by zero."""
        result = SimulationResult(allocator_name="x", params=engine_params)
        for name in (
            "mean_cross_shard_ratio",
            "mean_workload_deviation",
            "mean_normalized_throughput",
            "mean_execution_time",
            "mean_unit_time",
            "mean_input_bytes",
        ):
            assert getattr(result, name) == 0.0, name
        assert result.total_settled_volume == 0.0
        assert result.final_in_flight_receipts == 0
        # And the summary flattens cleanly.
        summary = summarize_results(result)
        assert summary["epochs"] == 0

    def test_trace_shorter_than_one_epoch_yields_empty_result(
        self, tiny_trace, engine_params
    ):
        # history_fraction=1.0 leaves an empty evaluation segment.
        result = Simulation(
            tiny_trace,
            HashAllocator(),
            SimulationConfig(params=engine_params, history_fraction=1.0),
        ).run()
        assert result.epochs == 0
        assert result.mean_cross_shard_ratio == 0.0
        assert summarize_results(result)["total_transactions"] == 0


class TestConfigValidation:
    def test_rejects_unknown_backend(self, engine_params):
        """Only the dense store runs; the dict store is a test oracle."""
        assert SimulationConfig(params=engine_params).state_backend == "dense"
        for backend in ("dict", "sqlite"):
            with pytest.raises(SimulationError, match="state_reference"):
                SimulationConfig(params=engine_params, state_backend=backend)

    def test_rejects_negative_initial_balance(self, engine_params):
        with pytest.raises(SimulationError, match="initial_balance"):
            SimulationConfig(params=engine_params, initial_balance=-1.0)

    def test_rejects_negative_relay_delay(self, engine_params):
        with pytest.raises(SimulationError, match="relay_delay_blocks"):
            SimulationConfig(params=engine_params, relay_delay_blocks=-1)


class TestSummaries:
    def test_executed_keys_only_in_executed_summaries(
        self, tiny_trace, engine_params
    ):
        plain = summarize_results(
            Simulation(
                tiny_trace,
                HashAllocator(),
                SimulationConfig(params=engine_params),
            ).run()
        )
        executed = summarize_results(
            Simulation(
                tiny_trace,
                HashAllocator(),
                SimulationConfig(params=engine_params, execute_values=True),
            ).run()
        )
        executed_keys = {
            "total_executed_transactions",
            "total_settled_volume",
            "total_overdraft_aborts",
            "final_in_flight_receipts",
        }
        assert executed_keys.isdisjoint(plain)
        assert executed_keys.issubset(executed)


class TestMatrixIntegration:
    def test_engine_mode_axis_expands_and_keeps_labels(self):
        from repro.experiments import ScenarioMatrix, default_trace

        trace = default_trace(
            "exec-trace",
            n_accounts=400,
            n_transactions=3_000,
            n_blocks=300,
            seed=5,
        )
        base = ScenarioMatrix(
            name="exec", methods=("hash-random",), traces=(trace,), ks=(2,)
        )
        both = ScenarioMatrix(
            name="exec",
            methods=("hash-random",),
            traces=(trace,),
            ks=(2,),
            engine_modes=("metrics", "execute"),
        )
        assert len(both) == 2 * len(base)
        labels = [c.label for c in both.cells()]
        assert labels[0] == base.cells()[0].label  # metrics label unchanged
        assert labels[1] == labels[0] + "/execute"
        # Same scenario -> same seed across modes.
        seeds = [c.cell_seed for c in both.cells()]
        assert seeds[0] == seeds[1]

    def test_executed_cells_report_identical_effectiveness(self):
        from repro.experiments import ScenarioMatrix, default_trace, run_matrix

        matrix = ScenarioMatrix(
            name="exec-pair",
            methods=("mosaic-pilot",),
            traces=(
                default_trace(
                    "exec-trace",
                    n_accounts=400,
                    n_transactions=3_000,
                    n_blocks=300,
                    seed=5,
                ),
            ),
            ks=(2,),
            engine_modes=("metrics", "execute"),
        )
        result = run_matrix(matrix, strict=True)
        summaries = result.summaries
        assert [s["engine_mode"] for s in summaries] == ["metrics", "execute"]
        for metric in (
            "mean_cross_shard_ratio",
            "mean_workload_deviation",
            "mean_normalized_throughput",
            "total_migrations",
        ):
            values = {s[metric] for s in summaries}
            assert len(values) == 1, metric
        assert summaries[1]["total_settled_volume"] > 0
        assert "total_settled_volume" not in summaries[0]

    def test_rejects_unknown_engine_mode(self):
        from repro.errors import ConfigurationError
        from repro.experiments import ScenarioMatrix, default_trace

        with pytest.raises(ConfigurationError, match="unknown engine modes"):
            ScenarioMatrix(
                name="bad",
                methods=("hash-random",),
                traces=(default_trace("t", n_accounts=100, n_transactions=500),),
                engine_modes=("warp-speed",),
            )
