"""Harness checks for the end-to-end benchmark.

Run with ``pytest benchmarks/e2e/test_e2e_harness.py`` (outside the
tier-1 suite: it runs every workload's fixed reps and one traced pair,
about two minutes).
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from benchmarks.e2e import ROOT
from benchmarks.e2e.lanes import LANES, run_rep
from benchmarks.e2e.tracing import SpanRecorder

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = ROOT / "benchmarks" / "e2e" / "run.py"


def _run_once(workload: str, trace: int) -> dict:
    """The fewest reps (``--seconds 0``) through the benchmark's own command line."""
    child = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert child.returncode == 0, child.stderr
    result: dict = json.loads(child.stdout.splitlines()[-1])
    return result


def test_workloads_match_benchmark_json() -> None:
    assert [w["name"] for w in CONFIG["workloads"]] == list(LANES)


@pytest.mark.parametrize("workload", list(LANES))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload: str, trace: int) -> None:
    result = _run_once(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = CONFIG["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [spec["name"] for spec in specs]
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], float)
    if trace:
        # Self times are disjoint pieces of the drive, so they sum to it.
        assert 0.9 <= result["metrics"]["trace.coverage"]["value"] <= 1.1


@pytest.mark.parametrize("workload", ["sim-bursty-mon", "sim-ddb-hot"])
def test_traced_rep_leaves_no_wrapper_behind(workload: str) -> None:
    lane = LANES[workload]
    before = run_rep(lane, 5)
    recorder = SpanRecorder()
    with recorder:
        traced = run_rep(lane, 5, drive_marks=recorder)
    after = run_rep(lane, 5)
    for owner, attribute, original in recorder.patched:
        assert vars(owner).get(attribute) is original, f"{owner}.{attribute} still wrapped"

    def counts(rep):
        return rep.events, rep.declarations, rep.probes, rep.latencies

    # The simulator is deterministic: tracing must not change the run,
    # and a rep after tracing must be the same as one before it.
    assert counts(traced) == counts(before) == counts(after)
    assert not before.failed and not traced.failed and not after.failed
