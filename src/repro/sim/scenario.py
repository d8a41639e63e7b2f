"""Named scenario presets and the one-call comparison API.

``run_comparison`` is the convenience entry point a downstream user
reaches for first: pick a scenario (or bring your own trace), pick the
methods, get back one summary per method. The presets encode the
workload regimes the paper's introduction motivates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Sequence

from repro.allocation.base import Allocator
from repro.chain.params import ProtocolParams
from repro.data.ethereum import EthereumTraceConfig, generate_ethereum_like_trace
from repro.data.trace import Trace
from repro.errors import ConfigurationError
from repro.sim.engine import Simulation, SimulationConfig, SimulationResult
from repro.sim.recorder import summarize_results

AllocatorFactory = Callable[[], Allocator]


@dataclass(frozen=True)
class Scenario:
    """A named workload + protocol configuration."""

    name: str
    description: str
    trace_config: EthereumTraceConfig
    params: ProtocolParams
    history_fraction: float = 0.9

    def build_trace(self) -> Trace:
        """Generate this scenario's trace (deterministic per seed)."""
        return generate_ethereum_like_trace(self.trace_config)

    def simulation_config(self) -> SimulationConfig:
        return SimulationConfig(
            params=self.params, history_fraction=self.history_fraction
        )


def _scenario(name, description, trace_kwargs, params_kwargs):
    return Scenario(
        name=name,
        description=description,
        trace_config=EthereumTraceConfig(
            hub_fraction=0.01, hub_transaction_share=0.12, **trace_kwargs
        ),
        params=ProtocolParams(**params_kwargs),
    )


#: Built-in scenarios, keyed by name.
SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        _scenario(
            "paper-default",
            "The paper's default setting scaled to laptop size: "
            "k = 16, eta = 2, community-structured traffic.",
            dict(n_accounts=4_000, n_transactions=50_000, n_blocks=3_000, seed=1),
            dict(k=16, eta=2.0, tau=30, seed=1),
        ),
        _scenario(
            "small-shards",
            "Few shards (k = 4), where allocation is most stable — the "
            "paper's Table V configuration.",
            dict(n_accounts=3_000, n_transactions=40_000, n_blocks=2_400, seed=2),
            dict(k=4, eta=2.0, tau=30, seed=2),
        ),
        _scenario(
            "expensive-cross-shard",
            "High cross-shard difficulty (eta = 10): cross-shard "
            "transactions dominate shard capacity.",
            dict(n_accounts=3_000, n_transactions=40_000, n_blocks=2_400, seed=3),
            dict(k=16, eta=10.0, tau=30, seed=3),
        ),
        _scenario(
            "onboarding-wave",
            "A quarter of the account universe arrives during the "
            "evaluation window — the new-account regime where "
            "client-driven allocation shines.",
            dict(
                n_accounts=3_000,
                n_transactions=40_000,
                n_blocks=2_400,
                new_account_fraction=0.25,
                seed=4,
            ),
            dict(k=8, eta=2.0, tau=30, beta=0.5, seed=4),
        ),
        _scenario(
            "informed-clients",
            "Clients know 75% of their future transactions (beta = 0.75), "
            "the sweet spot of the paper's Table V.",
            dict(n_accounts=3_000, n_transactions=40_000, n_blocks=2_400, seed=5),
            dict(k=4, eta=2.0, tau=30, beta=0.75, seed=5),
        ),
    )
}

def get_scenario(name: str) -> Scenario:
    """Look up a built-in scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None


def run_comparison(
    scenario: Scenario,
    methods: Optional[Sequence[str]] = None,
    trace: Optional[Trace] = None,
    factories: Optional[Dict[str, AllocatorFactory]] = None,
) -> Dict[str, Dict[str, object]]:
    """Run several allocators on one scenario; return summaries by name.

    Args:
        scenario: the scenario to run (use :func:`get_scenario` or build
            your own).
        methods: subset of method names (default: every
            :data:`~repro.experiments.matrix.ALLOCATOR_BUILDERS` key,
            each built with the scenario's seed).
        trace: pre-built trace to reuse across calls (default: generate
            from the scenario).
        factories: custom method-name -> allocator-factory map.
    """
    # Imported here: repro.experiments imports this package's engine.
    from repro.experiments.matrix import ALLOCATOR_BUILDERS

    seed = scenario.params.seed
    catalogue: Dict[str, AllocatorFactory] = {
        name: partial(build, seed) for name, build in ALLOCATOR_BUILDERS.items()
    }
    if factories:
        catalogue.update(factories)
    chosen = list(methods) if methods is not None else list(catalogue)
    unknown = [m for m in chosen if m not in catalogue]
    if unknown:
        raise ConfigurationError(
            f"unknown methods {unknown}; available: {sorted(catalogue)}"
        )
    if trace is None:
        trace = scenario.build_trace()
    config = scenario.simulation_config()

    summaries: Dict[str, Dict[str, object]] = {}
    for name in chosen:
        result = Simulation(trace, catalogue[name](), config).run()
        result.allocator_name = name
        summary = summarize_results(result)
        summary["scenario"] = scenario.name
        summaries[name] = summary
    return summaries
