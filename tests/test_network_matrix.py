"""The network axis of the scenario matrix and its CI smoke cell.

Pins the digest-compatibility contract: the ideal model annotates
nothing — no label suffix, no summary keys — so every pre-network grid
digest is byte-identical; non-ideal cells suffix ``label`` only (the
scenario label, and therefore the seed, is shared with the ideal twin).
"""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.experiments.matrix import ScenarioMatrix, default_trace, preset_matrix
from repro.experiments.runner import run_matrix


def tiny_trace_spec():
    return default_trace(
        "tiny", n_accounts=200, n_transactions=1_500, n_blocks=160, seed=7
    )


def executed_matrix(network="ideal"):
    return ScenarioMatrix(
        name="net-test",
        methods=("hash-random",),
        traces=(tiny_trace_spec(),),
        ks=(4,),
        tau=40,
        engine_modes=("execute",),
        network=network,
    )


class TestNetworkAxis:
    def test_ideal_cells_have_unsuffixed_labels(self):
        (cell,) = executed_matrix("ideal").cells()
        assert cell.network == "ideal"
        assert "/net-" not in cell.label

    def test_lossy_cells_suffix_label_but_not_scenario(self):
        (ideal,) = executed_matrix("ideal").cells()
        (lossy,) = executed_matrix("lossy").cells()
        assert lossy.label == f"{ideal.label}/net-lossy"
        # The scenario label — and so the seed — is the ideal twin's:
        # the network perturbs delivery, never the simulated workload.
        assert lossy.scenario_label == ideal.scenario_label
        assert lossy.cell_seed == ideal.cell_seed
        assert lossy.simulation_config().network == "lossy"

    def test_with_network_is_a_grid_copy(self):
        matrix = replace(executed_matrix("ideal"), network="wan")
        assert matrix.network == "wan"
        assert all(cell.network == "wan" for cell in matrix.cells())

    def test_unknown_network_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown network"):
            executed_matrix("dialup")

    def test_non_ideal_network_rejects_metrics_mode(self):
        with pytest.raises(ConfigurationError, match="value execution"):
            replace(preset_matrix("smoke"), network="lossy")
        # Restricting to executing modes as well makes it legal.
        replace(preset_matrix("smoke"), engine_modes=("execute",), network="lossy")


class TestExecutedSummaries:
    def test_ideal_summary_carries_no_network_keys(self):
        result = run_matrix(executed_matrix("ideal"))
        (summary,) = result.summaries
        assert "network" not in summary
        assert "total_retransmissions" not in summary

    def test_lossy_summary_reports_fault_metrics(self):
        result = run_matrix(executed_matrix("lossy"))
        (summary,) = result.summaries
        assert summary["network"] == "lossy"
        assert summary["total_delivered_messages"] > 0
        assert summary["total_retransmissions"] > 0
        assert summary["max_conservation_drift"] == pytest.approx(
            0.0, abs=1e-6
        )
        assert summary["cell"].endswith("/net-lossy")


class TestNetworkSmokeCell:
    def test_smoke_grid_shape(self):
        matrix = preset_matrix("network-smoke")
        assert matrix.network == "lossy"
        assert matrix.engine_modes == ("execute",)
        assert len(matrix) == 1

    def test_smoke_cell_asserts_and_repeats_bit_identically(self):
        matrix = preset_matrix("network-smoke")
        first = run_matrix(matrix)
        second = run_matrix(matrix)
        assert not first.failures and not second.failures
        assert first.deterministic_digest() == second.deterministic_digest()
        (summary,) = first.summaries
        assert summary["total_retransmissions"] > 0
        assert summary["max_conservation_drift"] <= 1e-6
