"""Unit tests for scenario presets and run_comparison."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.experiments.matrix import ALLOCATOR_BUILDERS
from repro.sim.scenario import (
    SCENARIOS,
    Scenario,
    get_scenario,
    run_comparison,
)


class TestScenarioCatalogue:
    def test_all_scenarios_well_formed(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert scenario.description
            assert scenario.params.k >= 1

    def test_get_scenario(self):
        assert get_scenario("paper-default").params.k == 16

    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError, match="available"):
            get_scenario("nope")

    def test_build_trace_is_deterministic(self):
        scenario = get_scenario("small-shards")
        a = scenario.build_trace()
        b = scenario.build_trace()
        assert len(a) == len(b)
        assert (a.batch.senders == b.batch.senders).all()

    def test_onboarding_wave_has_arrivals(self):
        scenario = get_scenario("onboarding-wave")
        assert scenario.trace_config.new_account_fraction == 0.25


class TestRunComparison:
    @pytest.fixture(scope="class")
    def small_scenario(self):
        base = get_scenario("small-shards")
        from repro.data.ethereum import EthereumTraceConfig

        return Scenario(
            name="tiny",
            description="test scenario",
            trace_config=EthereumTraceConfig(
                n_accounts=600,
                n_transactions=6_000,
                n_blocks=600,
                seed=6,
            ),
            params=dataclasses.replace(base.params, tau=60),
            history_fraction=0.8,
        )

    def test_selected_methods_only(self, small_scenario):
        summaries = run_comparison(
            small_scenario, methods=["mosaic-pilot", "hash-random"]
        )
        assert set(summaries) == {"mosaic-pilot", "hash-random"}
        for name, summary in summaries.items():
            assert summary["allocator"] == name
            assert summary["scenario"] == "tiny"
            assert 0 <= summary["mean_cross_shard_ratio"] <= 1

    def test_unknown_method_rejected(self, small_scenario):
        with pytest.raises(ConfigurationError, match="unknown methods"):
            run_comparison(small_scenario, methods=["who"])

    def test_custom_factory(self, small_scenario):
        from repro.allocation.hash_based import HashAllocator

        summaries = run_comparison(
            small_scenario,
            methods=["custom"],
            factories={"custom": HashAllocator},
        )
        assert "custom" in summaries

    def test_trace_reuse(self, small_scenario):
        trace = small_scenario.build_trace()
        a = run_comparison(small_scenario, methods=["hash-random"], trace=trace)
        b = run_comparison(small_scenario, methods=["hash-random"], trace=trace)
        assert (
            a["hash-random"]["mean_cross_shard_ratio"]
            == b["hash-random"]["mean_cross_shard_ratio"]
        )

    def test_default_method_catalogue_is_complete(self):
        assert {
            "mosaic-pilot",
            "txallo",
            "orbit",
            "metis",
            "hash-random",
            "txallo-a",
        } <= set(ALLOCATOR_BUILDERS)

    def test_builders_take_the_scenario_seed(self, small_scenario):
        from repro.allocation.metis_like import MetisLikeAllocator
        from repro.sim.engine import Simulation
        from repro.sim.recorder import summarize_results

        summaries = run_comparison(small_scenario, methods=["metis"])
        trace = small_scenario.build_trace()
        seeded = summarize_results(
            Simulation(
                trace,
                MetisLikeAllocator(seed=small_scenario.params.seed),
                small_scenario.simulation_config(),
            ).run()
        )
        for key in ("mean_cross_shard_ratio", "total_migrations"):
            assert summaries["metis"][key] == seeded[key]
