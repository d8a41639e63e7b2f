"""Public API surface tests: every exported name resolves, works and is
used."""

import ast
import dataclasses
import importlib
import tokenize
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parent.parent

#: Directories whose modules count as consumers of an exported name.
CONSUMER_DIRS = ("src", "benchmarks", "examples")

#: Exported names kept without a consumer, each with the reason.
ORACLES = {
    "cost_vector": "the Eq. 3 cost vector: the oracle the tests check "
    "Pilot's Eq. 4 Potential maximisation against",
    "potential": "the scalar Eq. 4 Potential: the oracle the tests check "
    "the vectorised potential_vector against",
    "read_transactions_csv": "the eager CSV reader: the oracle for "
    "CsvTraceSource, and the reader its out-of-order error points to",
    "Timer": "the lap timer that per-phase epoch spans are to build on",
}


class TestExports:
    @pytest.mark.parametrize("name", sorted(repro.__all__))
    def test_top_level_names_resolve(self, name):
        assert hasattr(repro, name), name
        assert getattr(repro, name) is not None

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.chain",
            "repro.core",
            "repro.allocation",
            "repro.data",
            "repro.sim",
            "repro.analysis",
            "repro.workload",
            "repro.util",
        ],
    )
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_version_present(self):
        assert repro.__version__.count(".") == 2


def _subpackages():
    root = REPO / "src" / "repro"
    return sorted(
        ".".join(init.parent.relative_to(root.parent).parts)
        for init in root.rglob("__init__.py")
        if init.parent != root
    )


def _consumer_names():
    """Every name used in the code of the modules under
    :data:`CONSUMER_DIRS`.

    Only ``NAME`` tokens count, so a name that appears in a docstring,
    string or comment is not a use, and neither is the name a ``def`` or
    ``class`` statement defines. Package ``__init__.py`` files only
    re-export names, so none of them counts as a consumer.
    """
    names = set()
    for directory in CONSUMER_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            previous = None
            with tokenize.open(path) as source:
                for token in tokenize.generate_tokens(source.readline):
                    if token.type == tokenize.NAME and previous not in (
                        "def",
                        "class",
                    ):
                        names.add(token.string)
                    previous = token.string
    return names


def test_every_export_has_a_consumer():
    """Each name a subpackage exports is used in code somewhere besides
    its own ``def``/``class`` statement; an unused export is deleted or
    moved next to the test that needs it, unless :data:`ORACLES` names
    it."""
    used = _consumer_names()
    exported = set()
    unconsumed = []
    for module_name in _subpackages():
        for name in getattr(importlib.import_module(module_name), "__all__", []):
            exported.add(name)
            if name not in ORACLES and name not in used:
                unconsumed.append(f"{module_name}.{name}")
    assert not unconsumed, f"exports with no consumer: {unconsumed}"
    assert set(ORACLES) <= exported, "an ORACLES entry is no longer exported"


def _imported_modules():
    """Every module an import statement names in the modules under
    :data:`CONSUMER_DIRS`.

    Only import statements in code count, so a module named in a
    docstring, string or comment is not imported. ``from a.b import c``
    names both ``a.b`` and ``a.b.c`` (``c`` may be a submodule).
    Package ``__init__.py`` files count here: importing a module to
    re-export its names is a use of the module, and whether those names
    have a consumer is :func:`test_every_export_has_a_consumer`'s job.
    """
    modules = set()
    for directory in CONSUMER_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    modules.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    modules.add(node.module)
                    modules.update(
                        f"{node.module}.{alias.name}" for alias in node.names
                    )
    return modules


def test_every_module_has_an_importer():
    """Each module under ``src/repro/`` is imported by some code in
    :data:`CONSUMER_DIRS`; a module nothing imports is dead and is
    deleted or moved into the tests."""
    imported = _imported_modules()
    src = REPO / "src"
    modules = (
        ".".join(path.relative_to(src).with_suffix("").parts)
        for path in (src / "repro").rglob("*.py")
        if path.name not in ("__init__.py", "__main__.py")
    )
    orphans = sorted(module for module in modules if module not in imported)
    assert not orphans, f"modules no code imports: {orphans}"


class TestMinimalWorkflows:
    """Smoke-level end-to-end flows through the public API only."""

    def test_readme_quickstart_flow(self):
        from repro import (
            EthereumTraceConfig,
            MosaicAllocator,
            ProtocolParams,
            Simulation,
            SimulationConfig,
            generate_ethereum_like_trace,
        )

        trace = generate_ethereum_like_trace(
            EthereumTraceConfig(
                n_accounts=300, n_transactions=2_000, n_blocks=300, seed=7
            )
        )
        params = ProtocolParams(k=4, eta=2.0, tau=40)
        result = Simulation(
            trace, MosaicAllocator(), SimulationConfig(params=params)
        ).run()
        assert 0 <= result.mean_cross_shard_ratio <= 1

    def test_client_level_flow(self):
        import numpy as np

        from repro import Client, ShardMapping, Transaction, WorkloadOracle
        from repro.chain.transaction import TransactionBatch

        mapping = ShardMapping(np.array([0, 1, 1]), k=2)
        client = Client(account=0, eta=2.0)
        client.observe_committed(Transaction(0, 1))
        client.observe_committed(Transaction(0, 2))
        oracle = WorkloadOracle(eta=2.0)
        snapshot = oracle.publish(
            0,
            TransactionBatch(np.array([1]), np.array([2])),
            mapping,
        )
        request = client.propose_migration(snapshot, mapping)
        assert request is not None
        assert request.to_shard == 1

    def test_scenario_flow(self):
        from repro.data.ethereum import EthereumTraceConfig
        from repro.experiments import TraceSpec, preset_matrix, run_matrix

        tiny = TraceSpec(
            name="tiny-api",
            config=EthereumTraceConfig(
                n_accounts=300, n_transactions=2_000, n_blocks=300, seed=8
            ),
        )
        matrix = dataclasses.replace(
            preset_matrix("small-shards"),
            methods=("hash-random",),
            traces=(tiny,),
            tau=60,
            history_fraction=0.8,
        )
        (summary,) = run_matrix(matrix, strict=True).summaries
        assert summary["allocator"] == "hash-random"
