"""Outside-in span tracing for the end-to-end benchmark.

Spans are recorded by timing wrappers the benchmark installs around the
program's layer boundaries; nothing inside ``src/`` knows it is traced.
Three kinds of wrapper:

* class-level, on the public methods in :data:`CLASS_TARGETS` (and on
  the module global ``repro.sim.engine.epoch_metrics``), installed for
  the duration of :meth:`Tracer.patched`;
* instance-level, on one allocator's ``initialize`` / ``update`` /
  ``place_new_accounts`` (:meth:`Tracer.instrument`);
* on one source's ``chunks()`` iterator, timing each ``next()``.

A target that cannot be resolved (say, a later refactor renamed it) is
recorded in :attr:`Tracer.unresolved` and its layer metrics read
``missing``; the traced run carries on without that span.

Each span is ``{run, epoch, id, parent, name, start_ns, end_ns}``. The
parent is the innermost open span; ``epoch`` counts the epoch records
seen so far in the run. A layer's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Class-level targets: (span name, module, attribute path). An
#: attribute path without a dot names a module global.
CLASS_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("chain.genesis", "repro.sim.engine", "ExecutionSubstrate.__init__"),
    ("chain.execute", "repro.sim.engine", "ExecutionSubstrate.execute_epoch"),
    ("chain.reconfigure", "repro.sim.engine", "ExecutionSubstrate.reconfigure"),
    (
        "chain.crossshard.execute_batch",
        "repro.chain.crossshard",
        "CrossShardExecutor.execute_batch",
    ),
    ("chain.netsim.issue", "repro.chain.netsim", "ReceiptTransport.issue"),
    ("chain.netsim.poll", "repro.chain.netsim", "ReceiptTransport.poll"),
    ("chain.beacon.submit", "repro.chain.beacon", "BeaconChain.submit_batch"),
    ("chain.beacon.commit", "repro.chain.beacon", "BeaconChain.commit_epoch"),
    ("chain.epoch.reconfigure", "repro.chain.epoch", "EpochReconfigurator.run"),
    ("chain.state.migrate", "repro.chain.state", "StateRegistry.migrate_batch"),
    ("chain.state.compact", "repro.chain.state", "StateRegistry.compact_stores"),
    ("sim.metrics", "repro.sim.engine", "epoch_metrics"),
)

#: Targets whose return value is summed into a per-run counter
#: (``StateRegistry.migrate_batch`` returns the state bytes it moved).
RESULT_COUNTERS: Dict[str, str] = {"chain.state.migrate": "chain.state.moved_bytes"}

#: Instance-level allocator targets: (span name, method).
ALLOCATOR_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("allocation.initialize", "initialize"),
    ("allocation.update", "update"),
    ("allocation.place", "place_new_accounts"),
)

#: The span the benchmark records around each ``StreamingSimulation.run``.
RUN_SPAN = "sim.run"
#: Span name of one source pass; renamed once the run shows whether the
#: engine read the source once (decode) or twice (sizing, then decode).
DATA_PASS = "data.pass"

#: Per-layer share metrics: (metric, span name, "total" | "self").
#: Shares are percent of the run span; ``trace.wall_s`` is their base.
SHARE_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("data.sizing_share", "data.sizing", "total"),
    ("data.decode_share", "data.decode", "total"),
    ("allocation.initialize_share", "allocation.initialize", "total"),
    ("allocation.update_share", "allocation.update", "total"),
    ("allocation.place_share", "allocation.place", "total"),
    ("sim.metrics_share", "sim.metrics", "total"),
    ("sim.self_share", RUN_SPAN, "self"),
    ("chain.genesis_share", "chain.genesis", "total"),
    ("chain.execute_share", "chain.execute", "total"),
    ("chain.gossip_share", "chain.execute", "self"),
    (
        "chain.crossshard.execute_batch_share",
        "chain.crossshard.execute_batch",
        "total",
    ),
    ("chain.netsim.issue_share", "chain.netsim.issue", "total"),
    ("chain.netsim.poll_share", "chain.netsim.poll", "total"),
    ("chain.reconfigure_share", "chain.reconfigure", "total"),
    ("chain.beacon.submit_share", "chain.beacon.submit", "total"),
    ("chain.beacon.commit_share", "chain.beacon.commit", "total"),
    ("chain.epoch.reconfigure_share", "chain.epoch.reconfigure", "total"),
    ("chain.state.migrate_share", "chain.state.migrate", "total"),
    ("chain.state.compact_share", "chain.state.compact", "total"),
)


def _resolve(module_name: str, path: str) -> Optional[Tuple[object, str]]:
    """``(owner, attribute)`` for a target, or None when it is gone."""
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """In-memory span recorder for the traced benchmark runs."""

    def __init__(
        self, targets: Sequence[Tuple[str, str, str]] = CLASS_TARGETS
    ) -> None:
        self.targets = tuple(targets)
        self.spans: List[dict] = []
        #: Span names whose wrapper target could not be resolved.
        self.unresolved: set = set()
        #: Per-run counters: run -> name -> value.
        self.counts: Dict[int, Dict[str, float]] = {}
        self.run = -1
        self.epoch = 0
        self._stack: List[int] = []
        self._passes = 0

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = len(self.spans)
        record = {
            "run": self.run,
            "epoch": self.epoch,
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start_ns": perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record["end_ns"] = perf_counter_ns()

    def count(self, name: str, amount: float) -> None:
        run_counts = self.counts[self.run]
        run_counts[name] = run_counts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        run_counts = self.counts[self.run]
        run_counts[name] = max(run_counts.get(name, value), value)

    def wrap(
        self, fn: Callable, name: str, counter: Optional[str] = None
    ) -> Callable:
        """Time ``fn`` as span ``name``; add its result to ``counter``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.count(counter, result)
            return result

        return traced

    def begin_run(self) -> None:
        """Start a new run: epoch count and source passes restart."""
        self.run += 1
        self.epoch = 0
        self._passes = 0
        self.counts[self.run] = {}

    def end_run(self) -> None:
        """Name this run's source passes: two passes mean sizing + decode."""
        passes = self._passes
        for record in self.spans:
            if record["run"] == self.run and record["name"].startswith(DATA_PASS):
                first = record["name"] == f"{DATA_PASS}1"
                sizing = first and passes == 2
                record["name"] = "data.sizing" if sizing else "data.decode"

    # -- installation ------------------------------------------------------

    @contextmanager
    def patched(self) -> Iterator[None]:
        """Install the class-level wrappers; restore the originals on exit."""
        restore: List[Tuple[object, str, object]] = []
        for name, module_name, path in self.targets:
            resolved = _resolve(module_name, path)
            if resolved is None:
                self.unresolved.add(name)
                continue
            owner, attr = resolved
            # None marks an inherited attribute: restoring deletes the wrapper.
            restore.append((owner, attr, vars(owner).get(attr)))
            wrapped = self.wrap(getattr(owner, attr), name, RESULT_COUNTERS.get(name))
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, original in reversed(restore):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def instrument(self, allocator: object, source: object) -> None:
        """Wrap one run's allocator methods and source iterator."""
        for name, method in ALLOCATOR_TARGETS:
            bound = getattr(allocator, method, None)
            if callable(bound):
                setattr(allocator, method, self.wrap(bound, name))
            else:
                self.unresolved.add(name)
        chunks = getattr(source, "chunks", None)
        if not callable(chunks):
            self.unresolved.update(("data.sizing", "data.decode"))
            return

        def traced_chunks(*args, **kwargs):
            self._passes += 1
            name = f"{DATA_PASS}{self._passes}"
            iterator = iter(chunks(*args, **kwargs))
            while True:
                with self.span(name):
                    chunk = next(iterator, None)
                if chunk is None:
                    return
                self.count("data.rows", len(chunk))
                yield chunk

        source.chunks = traced_chunks

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def span_times(spans: Sequence[dict]) -> Dict[int, Tuple[int, int]]:
    """``id -> (duration_ns, self_ns)`` for a list of closed spans."""
    child_ns: Dict[int, int] = {}
    for record in spans:
        if record["parent"] is not None:
            duration = record["end_ns"] - record["start_ns"]
            child_ns[record["parent"]] = child_ns.get(record["parent"], 0) + duration
    times = {}
    for record in spans:
        duration = record["end_ns"] - record["start_ns"]
        times[record["id"]] = (duration, duration - child_ns.get(record["id"], 0))
    return times


def layer_shares(tracer: Tracer) -> Dict[str, Optional[float]]:
    """Per-layer share metrics (median over traced runs), None = missing.

    Also returns ``trace.wall_s`` (median run-span seconds, the base of
    every share), ``allocation.update_ms_p50`` and ``data.rows_per_s``.
    """
    times = span_times(tracer.spans)
    runs = sorted({r["run"] for r in tracer.spans if r["name"] == RUN_SPAN})
    per_run: Dict[str, List[float]] = {metric: [] for metric, _, _ in SHARE_METRICS}
    walls: List[float] = []
    for run in runs:
        totals: Dict[Tuple[str, str], int] = {}
        wall_ns = 0
        for record in tracer.spans:
            if record["run"] != run:
                continue
            duration, self_ns = times[record["id"]]
            if record["name"] == RUN_SPAN:
                wall_ns = duration
            for kind, value in (("total", duration), ("self", self_ns)):
                key = (record["name"], kind)
                totals[key] = totals.get(key, 0) + value
        walls.append(wall_ns / 1e9)
        for metric, name, kind in SHARE_METRICS:
            per_run[metric].append(100.0 * totals.get((name, kind), 0) / wall_ns)

    out: Dict[str, Optional[float]] = {}
    for metric, name, _ in SHARE_METRICS:
        missing = name in tracer.unresolved or not per_run[metric]
        out[metric] = None if missing else statistics.median(per_run[metric])
    out["trace.wall_s"] = statistics.median(walls) if walls else None

    update_ms = [
        times[r["id"]][0] / 1e6
        for r in tracer.spans
        if r["name"] == "allocation.update"
    ]
    out["allocation.update_ms_p50"] = (
        statistics.median(update_ms) if update_ms else None
    )
    data_ns = sum(
        times[r["id"]][0]
        for r in tracer.spans
        if r["name"] in ("data.sizing", "data.decode")
    )
    rows = sum(c.get("data.rows", 0) for c in tracer.counts.values())
    out["data.rows_per_s"] = rows / (data_ns / 1e9) if data_ns else None
    return out
