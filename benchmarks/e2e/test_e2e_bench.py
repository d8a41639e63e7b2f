"""Checks of the end-to-end benchmark, run at sizes built here.

Each workload keeps its method, execution mode, network and replay path
but is shrunk to a fraction of a second, so the whole module stays a
few seconds inside the tier-1 suite.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import e2e_bench as bench  # noqa: E402
from e2e_trace import CLASS_TARGETS, RUN_SPAN, Tracer, span_times  # noqa: E402

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

SMALL = {
    "metis-reconfig": dict(
        n_accounts=600, n_transactions=4_000, n_blocks=400, history_epochs=5
    ),
    "pilot-replay": dict(
        n_accounts=500, n_transactions=5_000, n_blocks=400, tau=40, history_epochs=4
    ),
    "hash-lossy": dict(
        n_accounts=1_000, n_transactions=6_000, n_blocks=400, history_epochs=4
    ),
    "pilot-metrics": dict(
        n_accounts=1_000, n_transactions=4_000, n_blocks=400, history_epochs=20
    ),
}


def small(name: str) -> bench.Workload:
    return dataclasses.replace(bench.WORKLOADS[name], **SMALL[name])


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """One traced measurement (one untraced + one traced rep) per workload."""
    workdir = tmp_path_factory.mktemp("e2e")
    return {
        name: bench.measure(small(name), 0, 1e-9, True, workdir)
        for name in bench.WORKLOADS
    }


def test_benchmark_json_matches_the_code():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        w.name: w.why for w in bench.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("name", list(SMALL))
def test_every_declared_metric_is_reported_with_its_unit(measured, name):
    m = measured[name]
    lines = set(m.report_lines(traced=True))
    for section, traced in (("end_to_end", False), ("per_layer", True)):
        result = m.result(traced)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {d["name"] for d in BENCHMARK[section]}
        for declared in BENCHMARK[section]:
            metric, unit = declared["name"], declared["unit"]
            value = result["metrics"][metric]["value"]
            assert result["metrics"][metric]["unit"] == unit
            assert isinstance(value, (int, float))
            assert any(
                line.startswith(f"{name} {metric} ") and line.endswith(f" {unit}")
                for line in lines
            ), metric


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_and_untraced_digests_match(measured, name):
    m = measured[name]
    assert m.untraced[0].digest == m.traced[0].digest == m.reference_digest
    assert m.correct and m.per_layer()["trace.unresolved"] == 0


@pytest.mark.parametrize("name", list(SMALL))
def test_spans_nest_and_self_times_are_non_negative(measured, name):
    spans = measured[name].tracer.spans
    by_id = {s["id"]: s for s in spans}
    for span in spans:
        assert span["end_ns"] >= span["start_ns"]
        if span["parent"] is None:
            assert span["name"] == RUN_SPAN
        else:
            parent = by_id[span["parent"]]
            assert parent["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= parent["end_ns"]
            assert parent["run"] == span["run"]
    assert all(self_ns >= 0 for _, self_ns in span_times(spans).values())


def test_missing_wrapper_target_reads_missing(tmp_path):
    import repro.chain.netsim as netsim

    original = netsim.ReceiptTransport.poll
    targets = [
        (name, module, "ReceiptTransport.no_such_method")
        if name == "chain.netsim.poll"
        else (name, module, path)
        for name, module, path in CLASS_TARGETS
    ]
    m = bench.measure(small("hash-lossy"), 0, 1e-9, True, tmp_path, Tracer(targets))
    layers = m.per_layer()
    assert layers["chain.netsim.poll_share"] is None
    assert layers["chain.netsim.issue_share"] is not None
    assert layers["trace.unresolved"] == 1
    assert "hash-lossy chain.netsim.poll_share missing %" in m.report_lines(True)
    assert m.result(True)["metrics"]["chain.netsim.poll_share"]["value"] == 0.0
    assert m.correct
    assert netsim.ReceiptTransport.poll is original


def test_pinned_digest_mismatch_fails_every_epoch():
    rep = bench.Rep(digest="not-the-pinned-digest", intervals_ms=[1.0], attempted=3)
    m = bench.Measurement(bench.WORKLOADS["hash-lossy"], 0, [rep])
    assert m.reference_digest == bench.PINNED_DIGESTS["hash-lossy"]
    assert (m.attempted, m.failed, m.correct) == (3, 3, False)


def test_exits_nonzero_without_program_sources(tmp_path):
    bare = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bare, ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "hash-lossy"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""
