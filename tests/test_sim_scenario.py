"""Unit tests for the named scenario presets behind ``repro compare``.

A scenario is a one-trace :class:`ScenarioMatrix` in ``PRESETS``: the
six allocators on one community-structured trace under one protocol
setting, run through ``run_matrix`` like every other grid.
"""

from dataclasses import replace

import pytest

from repro.allocation.hash_based import HashAllocator
from repro.data.ethereum import EthereumTraceConfig
from repro.errors import ConfigurationError
from repro.experiments import (
    ALLOCATOR_BUILDERS,
    TraceSpec,
    preset_matrix,
    run_matrix,
    seed_trace_cache,
)
from repro.experiments.runner import TIMING_KEYS
from repro.sim.engine import Simulation
from repro.sim.recorder import summarize_results

SIX_METHODS = (
    "mosaic-pilot",
    "txallo",
    "txallo-a",
    "metis",
    "hash-random",
    "orbit",
)

#: Each former scenario's trace size and seed, and its (k, eta, beta).
SCENARIOS = {
    "paper-default": ((4_000, 50_000, 3_000, 1), (16, 2.0, 0.0)),
    "small-shards": ((3_000, 40_000, 2_400, 2), (4, 2.0, 0.0)),
    "expensive-cross-shard": ((3_000, 40_000, 2_400, 3), (16, 10.0, 0.0)),
    "onboarding-wave": ((3_000, 40_000, 2_400, 4), (8, 2.0, 0.5)),
    "informed-clients": ((3_000, 40_000, 2_400, 5), (4, 2.0, 0.75)),
}


def deterministic(summary):
    return {k: v for k, v in summary.items() if k not in TIMING_KEYS}


class TestScenarioCatalogue:
    def test_all_scenarios_well_formed(self):
        for name, (size, setting) in SCENARIOS.items():
            accounts, transactions, blocks, seed = size
            k, eta, beta = setting
            arrivals = (
                {"new_account_fraction": 0.25} if name == "onboarding-wave" else {}
            )
            matrix = preset_matrix(name)
            assert matrix.name == name
            assert matrix.methods == SIX_METHODS
            (trace,) = matrix.traces
            assert trace.name == name
            assert trace.config == EthereumTraceConfig(
                n_accounts=accounts,
                n_transactions=transactions,
                n_blocks=blocks,
                hub_fraction=0.01,
                hub_transaction_share=0.12,
                seed=seed,
                **arrivals,
            ), name
            assert (matrix.ks, matrix.etas, matrix.betas) == ((k,), (eta,), (beta,))
            assert matrix.tau == 30
            assert matrix.history_fraction is None  # the engine's 0.9 split

    def test_get_scenario(self):
        assert preset_matrix("paper-default").ks == (16,)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError, match="available"):
            preset_matrix("nope")

    def test_build_trace_is_deterministic(self):
        (spec,) = preset_matrix("small-shards").traces
        a = spec.build()
        b = spec.build()
        assert len(a) == len(b)
        assert (a.batch.senders == b.batch.senders).all()

    def test_onboarding_wave_has_arrivals(self):
        (spec,) = preset_matrix("onboarding-wave").traces
        assert spec.config.new_account_fraction == 0.25


class TestRunComparison:
    @pytest.fixture(scope="class")
    def small_scenario(self):
        """``small-shards`` on a tiny trace, so each cell runs fast."""
        tiny = TraceSpec(
            name="tiny",
            config=EthereumTraceConfig(
                n_accounts=600, n_transactions=6_000, n_blocks=600, seed=6
            ),
        )
        return replace(
            preset_matrix("small-shards"),
            traces=(tiny,),
            tau=60,
            history_fraction=0.8,
        )

    def test_selected_methods_only(self, small_scenario):
        matrix = replace(small_scenario, methods=("mosaic-pilot", "hash-random"))
        summaries = run_matrix(matrix, strict=True).summaries
        assert [s["allocator"] for s in summaries] == [
            "mosaic-pilot",
            "hash-random",
        ]
        for summary in summaries:
            assert summary["trace"] == "tiny"
            assert 0 <= summary["mean_cross_shard_ratio"] <= 1

    def test_unknown_method_rejected(self, small_scenario):
        with pytest.raises(ConfigurationError, match="unknown methods"):
            replace(small_scenario, methods=("who",))

    def test_custom_factory(self, small_scenario, monkeypatch):
        """A custom allocator runs in a scenario once it is registered."""
        monkeypatch.setitem(
            ALLOCATOR_BUILDERS, "custom", lambda seed: HashAllocator()
        )
        matrix = replace(small_scenario, methods=("custom",))
        (summary,) = run_matrix(matrix, strict=True).summaries
        assert summary["allocator"] == "custom"

    def test_trace_reuse(self, small_scenario):
        """A trace seeded into the cache is the one every cell replays."""
        (spec,) = small_scenario.traces
        seed_trace_cache(spec, spec.build())
        matrix = replace(small_scenario, methods=("hash-random",))
        a = run_matrix(matrix).summaries
        b = run_matrix(matrix).summaries
        assert [deterministic(s) for s in a] == [deterministic(s) for s in b]

    def test_default_method_catalogue_is_complete(self):
        assert set(SIX_METHODS) | {
            "mosaic-pilot-fifo",
            "mosaic-pilot-unlimited",
        } == set(ALLOCATOR_BUILDERS)

    def test_builders_take_the_scenario_seed(self, small_scenario):
        """The ``metis`` row is Metis seeded with its cell's derived seed."""
        from repro.allocation.metis_like import MetisLikeAllocator

        matrix = replace(small_scenario, methods=("metis",))
        (summary,) = run_matrix(matrix, strict=True).summaries
        (cell,) = matrix.cells()
        (spec,) = matrix.traces
        result = Simulation(
            spec.build(),
            MetisLikeAllocator(seed=cell.cell_seed),
            cell.simulation_config(),
        ).run()
        result.allocator_name = "metis"
        seeded = deterministic(summarize_results(result))
        assert seeded == {key: summary[key] for key in seeded}
        assert summary["seed"] == cell.cell_seed
