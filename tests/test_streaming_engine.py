"""Equivalence and protocol tests for the streaming simulation engine.

The contract under test: ``Simulation(source, ...)`` produces
**bit-identical** epoch records, state roots and total value to the
eager protocol of ``tests/engine_reference.py`` over the materialised
trace, for every source kind and engine mode — streaming is a
memory-shape change, never a results change.
"""

import dataclasses
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import repro
from engine_reference import run_materialised
from repro.allocation.hash_based import HashAllocator
from repro.allocation.metis_like import MetisLikeAllocator
from repro.chain.params import ProtocolParams
from repro.chain.transaction import TransactionBatch
from repro.data.ethereum import (
    EthereumTraceConfig,
    generate_ethereum_like_trace,
)
from repro.data.etl import write_transactions_csv
from repro.data.generators import ValueModelConfig
from repro.data.source import (
    CsvTraceSource,
    MaterialisedTraceSource,
)
from repro.data.trace import Trace
from repro.errors import SimulationError
from repro.sim.engine import EpochRecord, Simulation, SimulationConfig

#: Every deterministic EpochRecord field — everything but the two
#: wall-clock measurements.
RECORD_FIELDS = tuple(
    f.name
    for f in dataclasses.fields(EpochRecord)
    if f.name not in ("execution_time", "unit_time")
)

PLAIN_CONFIG = EthereumTraceConfig(
    n_accounts=400, n_transactions=5_000, n_blocks=400, seed=23
)
VALUED_CONFIG = EthereumTraceConfig(
    n_accounts=400,
    n_transactions=5_000,
    n_blocks=400,
    seed=23,
    value_model=ValueModelConfig(fee_fraction=0.02),
)


def params(**overrides):
    defaults = dict(k=4, eta=2.0, tau=40, seed=7)
    defaults.update(overrides)
    return ProtocolParams(**defaults)


def assert_identical_records(streamed, materialised):
    """Bit-exact equality on every deterministic record field."""
    assert streamed.records, "run produced no epochs"
    assert len(streamed.records) == len(materialised.records)
    for left, right in zip(streamed.records, materialised.records):
        for name in RECORD_FIELDS:
            assert getattr(left, name) == getattr(right, name), (
                name,
                left.epoch,
            )


def assert_same_substrate(streamed, reference):
    """Bit-exact equality of final per-shard state and total value."""
    k = streamed.registry.k
    assert [streamed.registry.store_of(s).state_root() for s in range(k)] == [
        reference.registry.store_of(s).state_root() for s in range(k)
    ]
    assert streamed.total_value() == reference.total_value()


def count_passes(source):
    """Wrap ``source.chunks``; the returned list grows once per pass."""
    passes = []
    chunks = source.chunks

    def counted():
        passes.append(None)
        yield from chunks()

    source.chunks = counted
    return passes


def csv_pair(path, chunk_rows=599):
    """A streaming CSV source plus the reference's decode of the same file.

    CSV account ids are registry-assigned in first-seen order, so only
    another decode of the same file shares the id space.
    """
    source = CsvTraceSource(path, chunk_rows=chunk_rows, decoder="python")
    trace = CsvTraceSource(
        path, chunk_rows=chunk_rows, decoder="python"
    ).materialise()
    return source, trace


class TestWindowedEquivalence:
    def test_trace_is_wrapped_in_a_materialised_source(self):
        trace = generate_ethereum_like_trace(PLAIN_CONFIG)
        config = SimulationConfig(params=params())
        sim = Simulation(trace, HashAllocator(), config)
        assert isinstance(sim.source, MaterialisedTraceSource)
        assert sim.source.trace is trace
        reference, _ = run_materialised(trace, HashAllocator(), config)
        assert_identical_records(sim.run(), reference)

    def test_materialised_source_size_hint_fast_path(self):
        trace = generate_ethereum_like_trace(PLAIN_CONFIG)
        config = SimulationConfig(params=params())
        streamed = Simulation(
            MaterialisedTraceSource(trace, chunk_rows=701),
            HashAllocator(),
            config,
        ).run()
        materialised, _ = run_materialised(trace, HashAllocator(), config)
        assert_identical_records(streamed, materialised)

    def test_generator_source(self):
        """A generated trace replays through the chunked source view."""
        config = SimulationConfig(params=params())
        streamed = Simulation(
            MaterialisedTraceSource(
                generate_ethereum_like_trace(PLAIN_CONFIG), chunk_rows=613
            ),
            MetisLikeAllocator(seed=7),
            config,
        ).run()
        materialised, _ = run_materialised(
            generate_ethereum_like_trace(PLAIN_CONFIG),
            MetisLikeAllocator(seed=7),
            config,
        )
        assert_identical_records(streamed, materialised)

    def test_csv_two_pass_protocol(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_transactions_csv(path, generate_ethereum_like_trace(PLAIN_CONFIG))
        config = SimulationConfig(params=params())
        source, trace = csv_pair(path)
        passes = count_passes(source)
        seen = []
        streamed = Simulation(
            source, HashAllocator(), config, on_record=seen.append
        ).run()
        # The sizing pass is the only decode; the run replays its spool.
        assert len(passes) == 1
        # on_record sees every record once, in order, as it is appended.
        assert len(seen) == len(streamed.records)
        assert all(a is b for a, b in zip(seen, streamed.records))
        materialised, _ = run_materialised(trace, HashAllocator(), config)
        assert_identical_records(streamed, materialised)

    def test_history_epochs_split(self):
        trace = generate_ethereum_like_trace(PLAIN_CONFIG)
        config = SimulationConfig(params=params(), history_epochs=3)
        streamed = Simulation(
            MaterialisedTraceSource(trace, chunk_rows=701),
            HashAllocator(),
            config,
        ).run()
        materialised, _ = run_materialised(trace, HashAllocator(), config)
        assert_identical_records(streamed, materialised)
        # The absolute split actually moved: 3 history epochs leave more
        # evaluation epochs than the default 90% fraction does.
        default_run, _ = run_materialised(
            trace, HashAllocator(), SimulationConfig(params=params())
        )
        assert len(materialised.records) > len(default_run.records)

    def test_executed_observed_funding_over_csv(self, tmp_path):
        path = tmp_path / "valued.csv"
        write_transactions_csv(
            path, generate_ethereum_like_trace(VALUED_CONFIG)
        )
        config = SimulationConfig(
            params=params(),
            execute_values=True,
            funding="observed",
        )
        source, trace = csv_pair(path)
        passes = count_passes(source)
        sim = Simulation(source, HashAllocator(), config)
        streamed = sim.run()
        assert len(passes) == 1
        materialised, reference = run_materialised(
            trace, HashAllocator(), config
        )
        assert any(r.executed_transactions for r in streamed.records)
        assert_identical_records(streamed, materialised)
        assert_same_substrate(sim.substrate, reference)

    def test_executed_run_with_zero_value_prefix(self, tmp_path):
        """A zero-value prefix must not change executed bits.

        Every chunk carries the header's value column, zeros included,
        so the zero-amount prefix replays as zero-amount transfers (a
        valueless batch would transfer the 1.0 default). Two history
        epochs start the evaluation inside the zero prefix, so whole
        epochs are cut from all-zero chunks.
        """
        trace = generate_ethereum_like_trace(VALUED_CONFIG)
        cut = int(len(trace) * 0.6)
        trace.batch.values[:cut] = 0.0
        path = tmp_path / "zero_prefix.csv"
        write_transactions_csv(path, trace)
        config = SimulationConfig(
            params=params(),
            execute_values=True,
            funding="observed",
            history_epochs=2,
        )
        source, decoded = csv_pair(path)
        sim = Simulation(source, HashAllocator(), config)
        streamed = sim.run()
        materialised, reference = run_materialised(
            decoded, HashAllocator(), config
        )
        assert_identical_records(streamed, materialised)
        assert_same_substrate(sim.substrate, reference)

    def test_all_zero_values_replay_as_materialised(self, tmp_path):
        """A valued trace whose values are all zero keeps a zero value
        column through the CSV source, so its observed-funding replay
        settles what the materialised trace settles: nothing."""
        trace = generate_ethereum_like_trace(VALUED_CONFIG)
        trace.batch.values[:] = 0.0
        path = tmp_path / "zeros.csv"
        write_transactions_csv(path, trace)
        source, decoded = csv_pair(path)
        assert all(
            c.values is not None and not c.values.any()
            for c in CsvTraceSource(path, chunk_rows=599).chunks()
        )
        # The materialised run: the decoded ids with the trace's columns.
        zeros = Trace(
            TransactionBatch(
                decoded.batch.senders,
                decoded.batch.receivers,
                decoded.batch.blocks,
                trace.batch.values,
                trace.batch.fees,
            ),
            n_accounts=decoded.n_accounts,
        )
        config = SimulationConfig(
            params=params(), execute_values=True, funding="observed"
        )
        sim = Simulation(source, HashAllocator(), config)
        streamed = sim.run()
        materialised, reference = run_materialised(
            zeros, HashAllocator(), config
        )
        assert any(r.executed_transactions for r in streamed.records)
        assert streamed.total_settled_volume == 0.0
        assert_identical_records(streamed, materialised)
        assert_same_substrate(sim.substrate, reference)

    def test_beacon_spill_matches_in_memory_run(self, tmp_path):
        trace = generate_ethereum_like_trace(PLAIN_CONFIG)
        base = dict(params=params(), execute_values=True)
        spilled = Simulation(
            trace,
            MetisLikeAllocator(seed=7),
            SimulationConfig(beacon_spill_dir=str(tmp_path), **base),
        ).run()
        in_memory, _ = run_materialised(
            trace, MetisLikeAllocator(seed=7), SimulationConfig(**base)
        )
        assert_identical_records(spilled, in_memory)
        assert any(r.migrations for r in spilled.records)
        assert list(tmp_path.glob("seg-*.mrlog")), "no segments spilled"

    def test_every_feature_at_once_over_csv(self, tmp_path):
        """Streamed CSV + dense state + observed funding + lossy network
        + beacon spill + compaction + absolute history split, against
        the eager reference over the decoded trace."""
        path = tmp_path / "valued.csv"
        write_transactions_csv(
            path, generate_ethereum_like_trace(VALUED_CONFIG)
        )
        config = SimulationConfig(
            params=params(),
            execute_values=True,
            funding="observed",
            network="lossy",
            beacon_spill_dir=str(tmp_path / "spill"),
            compact_slack=0.25,
            history_epochs=3,
        )
        source, trace = csv_pair(path)
        sim = Simulation(source, MetisLikeAllocator(seed=7), config)
        streamed = sim.run()
        materialised, reference = run_materialised(
            trace,
            MetisLikeAllocator(seed=7),
            dataclasses.replace(
                config, beacon_spill_dir=str(tmp_path / "spill-ref")
            ),
        )
        assert_identical_records(streamed, materialised)
        assert_same_substrate(sim.substrate, reference)
        # The features actually engaged.
        records = streamed.records
        assert any(r.counters["chain.netsim.dropped_messages"] for r in records)
        assert any(r.migrations for r in records)
        assert any(r.counters["chain.state.compactions"] for r in records)
        assert list((tmp_path / "spill").glob("seg-*.mrlog"))
        # Single residency held throughout: every resident's home is the
        # shard phi names, and no epoch created or destroyed value.
        registry = sim.substrate.registry
        ids = np.arange(registry.n_accounts, dtype=np.int64)
        located = registry.locate_many(ids)
        resident = located >= 0
        assert resident.any()
        phi = sim.substrate.mapping.as_array()[ids]
        assert (located[resident] == phi[resident]).all()
        assert all(
            r.counters["chain.crossshard.conservation_drift"] == 0
            for r in records
        )


#: A CSV replay whose allocator announces its first epoch update on
#: stdout and then stalls, so the parent can kill it mid-run.
_STALLING_REPLAY = """
import sys, time
from repro.allocation.hash_based import HashAllocator
from repro.chain.params import ProtocolParams
from repro.data.source import CsvTraceSource
from repro.sim.engine import Simulation, SimulationConfig

class Stalling(HashAllocator):
    def update(self, *args, **kwargs):
        print("epoch", flush=True)
        time.sleep(60)

config = SimulationConfig(
    params=ProtocolParams(k=4, eta=2.0, tau=40, seed=7), history_epochs=2
)
Simulation(CsvTraceSource(sys.argv[1], chunk_rows=599), Stalling(), config).run()
"""


class TestSpool:
    def test_spool_is_removed_however_the_run_ends(self, tmp_path, monkeypatch):
        """Normal end, max_epochs early stop and a raising allocator
        each close the spool, and TMPDIR holds nothing at any point:
        the spool file has no name even mid-run."""
        path = tmp_path / "trace.csv"
        write_transactions_csv(path, generate_ethereum_like_trace(PLAIN_CONFIG))
        spool_root = tmp_path / "tmp"
        spool_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spool_root))
        opened = []
        temporary_file = tempfile.TemporaryFile

        def recording_temporary_file(*args, **kwargs):
            opened.append(temporary_file(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(tempfile, "TemporaryFile", recording_temporary_file)

        def leftovers():
            return list(spool_root.iterdir())

        def run(allocator, **overrides):
            config = SimulationConfig(
                params=params(), history_epochs=2, **overrides
            )
            source = CsvTraceSource(path, chunk_rows=599)
            return Simulation(source, allocator, config).run()

        full = run(HashAllocator()).records
        assert len(opened) == 1 and opened[0].closed
        assert not leftovers()
        # Stops before the replay has read the whole spool.
        assert len(run(HashAllocator(), max_epochs=2).records) < len(full)
        assert len(opened) == 2 and opened[1].closed
        assert not leftovers()

        class Boom(Exception):
            pass

        live = []

        def update(*args, **kwargs):
            live.append((opened[-1].closed, leftovers()))
            raise Boom

        allocator = HashAllocator()
        allocator.update = update
        with pytest.raises(Boom):
            run(allocator)
        assert live == [(False, [])], "the spool was closed or named mid-run"
        assert len(opened) == 3 and opened[2].closed
        assert not leftovers()

    def test_sigterm_leaves_tmpdir_empty(self, tmp_path):
        """A replay killed by SIGTERM, whose default handler exits
        without unwinding, leaves nothing under TMPDIR."""
        path = tmp_path / "trace.csv"
        write_transactions_csv(path, generate_ethereum_like_trace(PLAIN_CONFIG))
        spool_root = tmp_path / "tmp"
        spool_root.mkdir()
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(
            os.environ,
            TMPDIR=str(spool_root),
            PYTHONPATH=os.pathsep.join(
                filter(None, (src, os.environ.get("PYTHONPATH")))
            ),
        )
        child = subprocess.Popen(
            [sys.executable, "-c", _STALLING_REPLAY, str(path)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            assert child.stdout.readline() == "epoch\n"
            child.send_signal(signal.SIGTERM)
            assert child.wait(timeout=30) == -signal.SIGTERM
        finally:
            child.kill()
            child.wait()
            child.stdout.close()
        assert list(spool_root.iterdir()) == []


class TestHistoryKnobs:
    def test_fraction_and_epochs_are_mutually_exclusive(self):
        with pytest.raises(SimulationError, match="mutually exclusive"):
            SimulationConfig(
                params=params(), history_fraction=0.5, history_epochs=2
            )

    def test_negative_history_epochs_rejected(self):
        with pytest.raises(SimulationError):
            SimulationConfig(params=params(), history_epochs=-1)

    def test_default_fraction_applies_when_neither_set(self):
        config = SimulationConfig(params=params())
        assert config.resolved_history_fraction == pytest.approx(0.9)


class TestSourceProtocol:
    def test_size_hints(self, tmp_path):
        trace = generate_ethereum_like_trace(PLAIN_CONFIG)
        assert MaterialisedTraceSource(trace).size_hint() == (
            len(trace),
            trace.n_accounts,
        )
        path = tmp_path / "hint.csv"
        write_transactions_csv(path, trace)
        # A CSV cannot know its row count without a pass: no hint.
        assert CsvTraceSource(path).size_hint() is None


class TestUnboundedProtocol:
    """Every run is bounded: a CSV, even one that was once tailed, replays
    to its end under ``history_epochs``, as the tailing mode did over a
    file that stopped growing."""

    def test_follow_over_static_file(self, tmp_path):
        path = tmp_path / "follow.csv"
        write_transactions_csv(path, generate_ethereum_like_trace(PLAIN_CONFIG))
        config = SimulationConfig(params=params(), history_epochs=2)
        source, trace = csv_pair(path)
        assert not hasattr(source, "unbounded")
        seen = []
        result = Simulation(
            source, HashAllocator(), config, on_record=seen.append
        ).run()
        assert result.records
        assert [r.epoch for r in seen] == [r.epoch for r in result.records]
        materialised, _ = run_materialised(trace, HashAllocator(), config)
        assert_identical_records(result, materialised)
