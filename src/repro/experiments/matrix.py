"""Declarative scenario matrices: allocator x trace x parameter grids.

A :class:`ScenarioMatrix` names every simulation the experiment harness
should run — which allocators, over which traces, under which protocol
parameters — without saying *how* to run them (that is
``experiments/runner.py``). The grid expands into a deterministic,
ordered list of :class:`MatrixCell` objects; each cell derives its own
RNG seed from the matrix seed and the cell's label through
:func:`repro.util.rng.derive_seed`, so results are independent of
execution order, worker count and co-scheduled cells.

Adding a new grid cell means widening one of the axes (methods, traces,
``ks``/``etas``/``betas``) or registering a new allocator builder in
:data:`ALLOCATOR_BUILDERS`; see README.md for a worked example. The
named grids (``repro matrix --preset NAME``, and the scenarios of
``repro compare --scenario NAME``) live in :data:`PRESETS`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.allocation.base import Allocator
from repro.allocation.hash_based import HashAllocator
from repro.allocation.metis_like import MetisLikeAllocator
from repro.allocation.orbit import OrbitAllocator
from repro.allocation.txallo import TxAlloAllocator
from repro.chain.netsim import NETWORK_IDEAL, NETWORK_SPEC_NAMES
from repro.chain.params import ProtocolParams
from repro.core.mosaic import MosaicAllocator
from repro.data.ethereum import EthereumTraceConfig
from repro.errors import ConfigurationError
from repro.sim.engine import (
    FUNDING_MODES,
    FUNDING_OBSERVED,
    FUNDING_UNIFORM,
    ORACLE_LOOKAHEAD,
    SimulationConfig,
)
from repro.util.rng import derive_seed

#: Engine modes — a first-class grid axis. ``metrics`` is the classic
#: metrics-only loop; ``execute`` adds unified value execution on the
#: dense state store.
ENGINE_MODE_METRICS = "metrics"
ENGINE_MODE_EXECUTE = "execute"
ENGINE_MODES = (ENGINE_MODE_METRICS, ENGINE_MODE_EXECUTE)

#: Allocator builders, keyed by the display name used in result tables.
#: Each builder takes the cell seed so stochastic allocators stay
#: deterministic per cell and independent across cells. The two
#: ``mosaic-pilot-*`` entries are the ablation variants of the paper's
#: Mosaic: FIFO instead of gain-ranked commitment, and no lambda cap on
#: committed migrations.
ALLOCATOR_BUILDERS: Dict[str, Callable[[int], Allocator]] = {
    "mosaic-pilot": lambda seed: MosaicAllocator(initializer=TxAlloAllocator()),
    "txallo": lambda seed: TxAlloAllocator(mode="full"),
    "txallo-a": lambda seed: TxAlloAllocator(mode="adaptive"),
    "metis": lambda seed: MetisLikeAllocator(seed=seed),
    "hash-random": lambda seed: HashAllocator(),
    "orbit": lambda seed: OrbitAllocator(),
    "mosaic-pilot-fifo": lambda seed: MosaicAllocator(
        initializer=TxAlloAllocator(), fifo_commitment=True
    ),
    "mosaic-pilot-unlimited": lambda seed: MosaicAllocator(
        initializer=TxAlloAllocator(), unlimited_migrations=True
    ),
}

#: The six allocators a named scenario compares, in table order.
SCENARIO_METHODS = (
    "mosaic-pilot",
    "txallo",
    "txallo-a",
    "metis",
    "hash-random",
    "orbit",
)


@dataclass(frozen=True)
class TraceSpec:
    """A named, reproducible trace source.

    Exactly one of two sources backs a spec: a synthetic generator
    configuration (``config``) or an ethereum-etl CSV on disk
    (``etl_path`` — decoded through the chunked, bounded-memory
    :class:`~repro.data.source.CsvTraceSource`). Either way,
    :meth:`build` materialises the same :class:`Trace` every time, so
    cells sharing a spec share a cached trace and grids stay
    deterministic.
    """

    name: str
    config: Optional[EthereumTraceConfig] = None
    etl_path: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.config is None) == (self.etl_path is None):
            raise ConfigurationError(
                f"trace spec {self.name!r} needs exactly one of "
                "config (synthetic) or etl_path (CSV replay)"
            )

    def build(self) -> "Trace":  # noqa: F821 - runtime import below
        """Materialise this spec's trace (generator or streamed ETL)."""
        if self.etl_path is not None:
            from repro.data.source import CsvTraceSource

            return CsvTraceSource(self.etl_path).materialise()
        from repro.data.ethereum import generate_ethereum_like_trace

        return generate_ethereum_like_trace(self.config)


@dataclass(frozen=True)
class MatrixCell:
    """One fully-specified simulation of the grid."""

    method: str
    trace: TraceSpec
    k: int
    eta: float
    beta: float
    tau: int
    matrix_seed: int
    oracle_mode: str = ORACLE_LOOKAHEAD
    history_fraction: Optional[float] = None
    history_epochs: Optional[int] = None
    engine_mode: str = ENGINE_MODE_METRICS
    funding: str = FUNDING_UNIFORM
    #: Network model receipts/announcements ride (``"ideal"`` is the
    #: direct-call null model and — like the engine mode — is not part
    #: of the scenario label: a lossy cell simulates the bit-identical
    #: scenario of its ideal twin, the network only perturbs delivery).
    network: str = NETWORK_IDEAL

    @property
    def scenario_label(self) -> str:
        """The engine-mode-free identifier: also the RNG-stream label.

        Seeds derive from this label, *not* from :attr:`label`, so an
        executed cell simulates the bit-identical world of its
        metrics-mode twin — the engine mode (and the funding mode,
        which only shapes the substrate's genesis supply) changes what
        is measured, never the simulated scenario. An absolute history
        split (``history_epochs``) *does* change the scenario, so it
        annotates the label when set; the default fractional split
        keeps every pre-existing label byte-identical.
        """
        label = (
            f"{self.method}/{self.trace.name}"
            f"/k{self.k}/eta{self.eta:g}/beta{self.beta:g}/tau{self.tau}"
        )
        if self.history_epochs is not None:
            label = f"{label}/hist{self.history_epochs}"
        return label

    @property
    def label(self) -> str:
        """Stable identifier; executed cells carry mode suffixes."""
        label = self.scenario_label
        if self.engine_mode != ENGINE_MODE_METRICS:
            label = f"{label}/{self.engine_mode}"
        if self.funding != FUNDING_UNIFORM:
            label = f"{label}/funding-{self.funding}"
        if self.network != NETWORK_IDEAL:
            label = f"{label}/net-{self.network}"
        return label

    @property
    def cell_seed(self) -> int:
        """Deterministic per-cell seed, shared across engine modes."""
        return derive_seed(self.matrix_seed, self.scenario_label)

    def protocol_params(self) -> ProtocolParams:
        return ProtocolParams(
            k=self.k,
            eta=self.eta,
            tau=self.tau,
            beta=self.beta,
            seed=self.cell_seed,
        )

    def simulation_config(self) -> SimulationConfig:
        return SimulationConfig(
            params=self.protocol_params(),
            history_fraction=self.history_fraction,
            history_epochs=self.history_epochs,
            oracle_mode=self.oracle_mode,
            execute_values=self.engine_mode != ENGINE_MODE_METRICS,
            funding=self.funding,
            network=self.network,
        )

    def build_allocator(self) -> Allocator:
        return ALLOCATOR_BUILDERS[self.method](self.cell_seed)


@dataclass(frozen=True)
class ScenarioMatrix:
    """A declarative grid of simulations.

    The cell list is the Cartesian product
    ``traces x methods x ks x etas x betas x engine_modes`` in that
    (deterministic) nesting order, all sharing ``tau``/oracle settings.
    Unknown method or engine-mode names fail at construction time, not
    mid-run, and so does a k/eta/beta/tau value that
    :class:`ProtocolParams` rejects. The default single-mode axis
    (``("metrics",)``) expands to exactly the cells, labels and seeds of
    the pre-axis grid.
    """

    name: str
    methods: Tuple[str, ...]
    traces: Tuple[TraceSpec, ...]
    ks: Tuple[int, ...] = (16,)
    etas: Tuple[float, ...] = (2.0,)
    betas: Tuple[float, ...] = (0.0,)
    tau: int = 30
    seed: int = 0
    oracle_mode: str = ORACLE_LOOKAHEAD
    history_fraction: Optional[float] = None
    history_epochs: Optional[int] = None
    engine_modes: Tuple[str, ...] = (ENGINE_MODE_METRICS,)
    funding: str = FUNDING_UNIFORM
    network: str = NETWORK_IDEAL

    def __post_init__(self) -> None:
        if self.history_fraction is not None and self.history_epochs is not None:
            raise ConfigurationError(
                f"matrix {self.name!r}: history_fraction and history_epochs "
                "are mutually exclusive; set at most one"
            )
        unknown = [m for m in self.methods if m not in ALLOCATOR_BUILDERS]
        if unknown:
            raise ConfigurationError(
                f"unknown methods {unknown}; "
                f"available: {sorted(ALLOCATOR_BUILDERS)}"
            )
        unknown_modes = [m for m in self.engine_modes if m not in ENGINE_MODES]
        if unknown_modes:
            raise ConfigurationError(
                f"unknown engine modes {unknown_modes}; "
                f"available: {', '.join(ENGINE_MODES)}"
            )
        if self.funding not in FUNDING_MODES:
            raise ConfigurationError(
                f"unknown funding mode {self.funding!r}; "
                f"available: {', '.join(FUNDING_MODES)}"
            )
        if self.network not in NETWORK_SPEC_NAMES:
            raise ConfigurationError(
                f"unknown network model {self.network!r}; "
                f"available: {', '.join(NETWORK_SPEC_NAMES)}"
            )
        if self.network != NETWORK_IDEAL and any(
            mode == ENGINE_MODE_METRICS for mode in self.engine_modes
        ):
            raise ConfigurationError(
                f"matrix {self.name!r}: network {self.network!r} needs "
                "value execution; restrict engine_modes to executing "
                "modes (the metrics-only loop moves no messages)"
            )
        if self.funding != FUNDING_UNIFORM and any(
            mode == ENGINE_MODE_METRICS for mode in self.engine_modes
        ):
            raise ConfigurationError(
                f"matrix {self.name!r}: funding {self.funding!r} needs "
                "value execution; restrict engine_modes to executing "
                "modes (the metrics-only loop funds no genesis)"
            )
        if not self.methods or not self.traces:
            raise ConfigurationError("matrix needs >= 1 method and >= 1 trace")
        if not self.ks or not self.etas or not self.betas or not self.engine_modes:
            raise ConfigurationError("every parameter axis needs >= 1 value")
        for k, eta, beta in product(self.ks, self.etas, self.betas):
            ProtocolParams(k=k, eta=eta, tau=self.tau, beta=beta)

    def cells(self) -> List[MatrixCell]:
        """Expand the grid in deterministic order."""
        return [
            MatrixCell(
                method=method,
                trace=trace,
                k=k,
                eta=eta,
                beta=beta,
                tau=self.tau,
                matrix_seed=self.seed,
                oracle_mode=self.oracle_mode,
                history_fraction=self.history_fraction,
                history_epochs=self.history_epochs,
                engine_mode=engine_mode,
                funding=self.funding,
                network=self.network,
            )
            for trace in self.traces
            for method in self.methods
            for k in self.ks
            for eta in self.etas
            for beta in self.betas
            for engine_mode in self.engine_modes
        ]

    def __len__(self) -> int:
        return (
            len(self.traces)
            * len(self.methods)
            * len(self.ks)
            * len(self.etas)
            * len(self.betas)
            * len(self.engine_modes)
        )


def default_trace(
    name: str = "community",
    n_accounts: int = 3_000,
    n_transactions: int = 40_000,
    n_blocks: int = 2_400,
    seed: int = 0,
) -> TraceSpec:
    """The standard community-structured synthetic trace, sized to taste."""
    return TraceSpec(
        name=name,
        config=EthereumTraceConfig(
            n_accounts=n_accounts,
            n_transactions=n_transactions,
            n_blocks=n_blocks,
            hub_fraction=0.01,
            hub_transaction_share=0.12,
            seed=seed,
        ),
    )


#: The benchmark trace: the paper-table benches (``benchmarks/``) run
#: their grids over it, and the perf gate partitions its account graph.
BENCH_TRACE_SPEC = default_trace(
    "bench", n_accounts=6_000, n_transactions=80_000, n_blocks=4_000, seed=42
)


#: The checked-in ethereum-etl extract the ``etl-smoke`` preset replays,
#: relative to the repository root.
ETL_SMOKE_FIXTURE = "tests/fixtures/etl_smoke.csv"


def _resolve_etl_fixture() -> str:
    """Locate the checked-in ETL smoke fixture.

    Tried relative to the current directory first (the CI invocation),
    then relative to the source checkout this module was loaded from, so
    the preset also works from other directories. An installed package
    ships without the test tree, so there the lookup fails with a typed
    error.
    """
    for base in (Path.cwd(), Path(__file__).resolve().parents[3]):
        candidate = base / ETL_SMOKE_FIXTURE
        if candidate.is_file():
            return str(candidate)
    raise ConfigurationError(
        f"preset 'etl-smoke' needs the checked-in fixture "
        f"{ETL_SMOKE_FIXTURE!r}, found under neither the current "
        "directory nor the source checkout"
    )


#: The synthetic trace every synthetic preset replays.
SMOKE_TRACE = default_trace(
    "smoke-trace", n_accounts=600, n_transactions=6_000, n_blocks=400, seed=7
)


def _scenario(
    trace: TraceSpec, k: int, eta: float = 2.0, beta: float = 0.0
) -> Callable[[int], ScenarioMatrix]:
    """A named scenario: the six allocators on one trace, one setting."""
    return lambda seed: ScenarioMatrix(
        name=trace.name,
        methods=SCENARIO_METHODS,
        traces=(trace,),
        ks=(k,),
        etas=(eta,),
        betas=(beta,),
        tau=30,
        seed=seed,
    )


#: Named grids for ``repro matrix --preset NAME`` and ``repro compare
#: --scenario NAME``; each builder takes the matrix seed. Every preset
#: finishes in seconds, and the CLI's modifiers (``--engine-modes``,
#: ``--trace-source``, ``--funding``, ``--network``,
#: ``--history-epochs``) apply to any of them.
PRESETS: Dict[str, Callable[[int], ScenarioMatrix]] = {
    # Two allocator families x two shard counts, metrics only: trace
    # generation, allocation and aggregation end to end.
    "smoke": lambda seed: ScenarioMatrix(
        name="smoke",
        methods=("mosaic-pilot", "hash-random"),
        traces=(SMOKE_TRACE,),
        ks=(4, 8),
        tau=40,
        seed=seed,
    ),
    # Metis recomputes a full partition every epoch, so each executed
    # epoch floods the beacon with migration requests: the columnar
    # beacon commit, the home-shard lookup and grouped state movement.
    "realloc-smoke": lambda seed: ScenarioMatrix(
        name="realloc-smoke",
        methods=("metis",),
        traces=(SMOKE_TRACE,),
        ks=(4,),
        tau=40,
        seed=seed,
        engine_modes=(ENGINE_MODE_EXECUTE,),
    ),
    # The same cell over the degraded ``lossy`` WAN (~12% receipt drops,
    # duplicates, reordering, link outages): retransmission with
    # backoff, duplicate-settlement dedup and timeout refunds.
    # tests/test_network_matrix.py asserts nonzero retransmissions,
    # exact value conservation and a repeat-run digest match on it.
    "network-smoke": lambda seed: ScenarioMatrix(
        name="network-smoke",
        methods=("metis",),
        traces=(SMOKE_TRACE,),
        ks=(4,),
        tau=40,
        seed=seed,
        engine_modes=(ENGINE_MODE_EXECUTE,),
        network="lossy",
    ),
    # The checked-in ethereum-etl extract through the chunked
    # CsvTraceSource, with genesis funded from its observed value flow:
    # the ingest-to-settlement value pipeline.
    "etl-smoke": lambda seed: ScenarioMatrix(
        name="etl-smoke",
        methods=("mosaic-pilot",),
        traces=(TraceSpec(name="etl-fixture", etl_path=_resolve_etl_fixture()),),
        ks=(4,),
        tau=40,
        seed=seed,
        engine_modes=(ENGINE_MODE_EXECUTE,),
        funding=FUNDING_OBSERVED,
    ),
    # The named scenarios, one setting each. The paper's default
    # setting scaled to laptop size: k = 16, eta = 2.
    "paper-default": _scenario(
        default_trace(
            "paper-default",
            n_accounts=4_000,
            n_transactions=50_000,
            n_blocks=3_000,
            seed=1,
        ),
        k=16,
    ),
    # Few shards (k = 4), where allocation is most stable: the paper's
    # Table V configuration.
    "small-shards": _scenario(default_trace("small-shards", seed=2), k=4),
    # High cross-shard difficulty (eta = 10): cross-shard transactions
    # dominate shard capacity.
    "expensive-cross-shard": _scenario(
        default_trace("expensive-cross-shard", seed=3), k=16, eta=10.0
    ),
    # A quarter of the account universe arrives during the evaluation
    # window: the new-account regime of client-driven placement.
    "onboarding-wave": _scenario(
        TraceSpec(
            name="onboarding-wave",
            config=replace(
                default_trace(seed=4).config, new_account_fraction=0.25
            ),
        ),
        k=8,
        beta=0.5,
    ),
    # Clients know 75% of their future transactions (beta = 0.75), the
    # sweet spot of the paper's Table V.
    "informed-clients": _scenario(
        default_trace("informed-clients", seed=5), k=4, beta=0.75
    ),
}


def preset_matrix(name: str, seed: int = 0) -> ScenarioMatrix:
    """Build the named grid from :data:`PRESETS`."""
    builder = PRESETS.get(name)
    if builder is None:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}"
        )
    return builder(seed)


def with_trace_source(
    matrix: ScenarioMatrix, etl_path: str, name: str = "etl"
) -> ScenarioMatrix:
    """A copy of ``matrix`` replaying an ETL CSV instead of its traces.

    This is the ``repro matrix --trace-source`` axis: the grid's
    methods/parameters stay as declared while every cell draws its
    transactions (and value columns) from the extract at ``etl_path``.
    """
    return replace(
        matrix, traces=(TraceSpec(name=name, etl_path=str(etl_path)),)
    )
