"""Materialised reference for the simulation front end (a test oracle).

Production runs every simulation through one streaming front end,
:class:`repro.sim.engine.Simulation`: it places the history split chunk
by chunk, sizes the universe from a sizing pass, accumulates observed
funding incrementally, and slices epochs with ``EpochStream``.
This module keeps the eager formulation of the same Section V protocol
so equivalence tests can check that streaming path against an
independent one:

* the history split is :meth:`Trace.split` / :meth:`Trace.split_epochs`
  over the whole trace;
* observed funding is :func:`observed_funding_balances` over the whole
  batch;
* epochs come from :meth:`Trace.epochs` slices of the evaluation tail.

Only the per-epoch loop (``_run_epoch_loop``) and the substrate are
shared with production.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.allocation.base import Allocator
from repro.chain.economics import observed_funding_balances
from repro.data.trace import Trace
from repro.sim.engine import (
    FUNDING_OBSERVED,
    ExecutionSubstrate,
    SimulationConfig,
    SimulationResult,
    _initial_mapping,
    _run_epoch_loop,
)


def run_materialised(
    trace: Trace, allocator: Allocator, config: SimulationConfig
) -> Tuple[SimulationResult, Optional[ExecutionSubstrate]]:
    """Run the eager protocol over ``trace``; return (result, substrate).

    The substrate is None in metrics-only runs.
    """
    params = config.params
    if config.history_epochs is not None:
        history, evaluation = trace.split_epochs(
            params.tau, config.history_epochs
        )
    else:
        history, evaluation = trace.split(config.resolved_history_fraction)
    mapping = _initial_mapping(allocator, history, params, trace.n_accounts)

    substrate: Optional[ExecutionSubstrate] = None
    if config.execute_values:
        funding = None
        if config.funding == FUNDING_OBSERVED:
            funding = observed_funding_balances(
                trace.batch, trace.n_accounts
            )
        substrate = ExecutionSubstrate(
            trace.n_accounts, mapping, config, funding
        )

    seen = np.zeros(trace.n_accounts, dtype=bool)
    seen[history.active_accounts()] = True
    result = SimulationResult(
        allocator_name=allocator.name,
        params=params,
        execute_values=config.execute_values,
        network=config.network,
    )
    _run_epoch_loop(
        evaluation.epochs(params.tau, config.max_epochs),
        mapping,
        seen,
        allocator,
        config,
        substrate,
        result,
    )
    return result, substrate
