"""Command line of the end-to-end benchmark.

One workload, printing its metrics and, as the last line, one JSON
result ``{"correct", "attempted", "failed", "metrics"}``::

    python3 benchmarks/e2e/run.py --workload sim-cycle --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced reps of the same seed and
reports the per-layer metrics, writing the first traced rep's spans to
``benchmarks/results/trace-<workload>.json``.

All five workloads, each in a fresh interpreter so that ``peak_rss_mb``
belongs to one workload::

    python -m benchmarks.e2e run --seed 0 [--trace] [--record COMMIT]

``--record`` appends the run's medians to ``BENCH_trajectory.jsonl``.
The exit code is non-zero when any rep produced an incorrect output.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

if not __package__:
    # Run as a script: make the ``benchmarks.e2e`` package importable.
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e import ROOT
from benchmarks.e2e.lanes import (
    LANES,
    NOMINAL_DELAY_UNITS,
    Lane,
    Rep,
    end_to_end,
    host_rates,
    measure,
    run_rep,
)
from benchmarks.e2e.tracing import SpanRecorder

RESULTS = ROOT / "benchmarks" / "results"
TRAJECTORY = Path(__file__).resolve().with_name("BENCH_trajectory.jsonl")
#: a child workload run that takes longer than this is killed.
CHILD_TIMEOUT_S = 180.0


def load_config() -> dict[str, Any]:
    config: dict[str, Any] = json.loads((ROOT / "BENCHMARK.json").read_text())
    return config


@contextmanager
def checkout_tempdir() -> Iterator[None]:
    """Keep ``tempfile`` inside the checkout while the workload runs.

    A benchmark run may read and write only inside its checkout, but each
    cluster rep makes a temporary directory for its workers' logs.
    """
    path = RESULTS / "e2e-tmp"
    path.mkdir(parents=True, exist_ok=True)
    saved = tempfile.tempdir
    tempfile.tempdir = str(path)
    try:
        yield
    finally:
        tempfile.tempdir = saved
        shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# per-layer metrics of one traced rep


def per_layer(plain: Rep, traced: Rep, recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics of a traced rep, against the untraced rep of its seed."""
    totals = recorder.layer_totals()

    def calls(name: str) -> float:
        return float(totals.get(name, (0, 0.0))[0])

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0.0))[1]

    attributed = sum(seconds for _, seconds in totals.values())
    live = "live.loop" in totals
    delivered = recorder.delivery_units
    return {
        "sim.loop.self_s": self_s("sim.loop"),
        "sim.network.sends": calls("sim.network.send"),
        "sim.network.send.self_s": self_s("sim.network.send"),
        "sim.trace.records": calls("sim.trace.fanout"),
        "sim.trace.fanout.self_s": self_s("sim.trace.fanout"),
        "basic.handler.calls": calls("basic.handler"),
        "basic.handler.self_s": self_s("basic.handler"),
        "ddb.handler.calls": calls("ddb.handler"),
        "ddb.handler.self_s": self_s("ddb.handler"),
        "core.oracle.self_s": self_s("core.oracle"),
        "core.dark_components.calls": calls("core.dark_components"),
        "core.dark_components.self_s": self_s("core.dark_components"),
        "core.computations": float(len(traced.probes)),
        "core.useful_ratio": traced.declarations / len(traced.probes),
        "obs.span_fold.self_s": self_s("obs.span_fold"),
        "obs.telemetry.self_s": self_s("obs.telemetry"),
        # A share of the untraced drive: the subscribers do the same work
        # either way, while the traced drive also pays for every span.
        "obs.share": (self_s("obs.span_fold") + self_s("obs.telemetry")) / plain.drive_s,
        # The live loop waits on the wall clock, so its CPU, not its wall
        # time, is the work it does itself; the rest of its wall is idle.
        "live.loop.self_cpu_s": (
            traced.cpu_s - (attributed - self_s("live.loop")) if live else 0.0
        ),
        "live.idle_s": traced.drive_s - traced.cpu_s if live else 0.0,
        "live.send.self_s": self_s("live.send"),
        "live.delivery_lag_units_mean": (
            statistics.fmean(delivered) - NOMINAL_DELAY_UNITS if delivered else 0.0
        ),
        "cluster.bringup_s": plain.bringup_s,
        "cluster.codec.calls": calls("cluster.codec"),
        "cluster.codec.self_s": self_s("cluster.codec"),
        "cluster.frames.calls": calls("cluster.frames"),
        "cluster.frames.self_s": self_s("cluster.frames"),
        "workloads.driver.self_s": self_s("workloads.driver"),
        "workloads.late_ms_p50": plain.late_units * plain.unit_ms,
        "trace.overhead_ratio": traced.drive_s / plain.drive_s,
        "trace.coverage": attributed / traced.drive_s,
    }


def write_trace(path: Path, lane: Lane, seed: int, recorder: SpanRecorder) -> None:
    """The rep's spans, times in microseconds from its first span."""
    spans = recorder.spans
    names = sorted({span[0] for span in spans})
    index = {name: i for i, name in enumerate(names)}
    origin = spans[0][1] if spans else 0.0
    document = {
        "workload": lane.name,
        "seed": seed,
        "columns": ["name", "start_us", "end_us", "parent", "event"],
        "names": names,
        "drive": list(recorder.drive),
        "spans": [
            [
                index[name],
                round((start - origin) * 1e6, 1),
                round((end - origin) * 1e6, 1),
                parent,
                event,
            ]
            for name, start, end, parent, event in spans
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, separators=(",", ":")))


Pair = tuple[Rep, Rep, "dict[str, float] | None"]


def trace_pairs(lane: Lane, seed: int, seconds: float) -> list[Pair]:
    """Untraced then traced reps of each seed, until ``seconds`` pass.

    A pair whose reps did not both pass carries no per-layer metrics.
    """

    def pair(lane: Lane, rep_seed: int) -> Pair:
        plain = run_rep(lane, rep_seed)
        gc.collect()
        recorder = SpanRecorder()
        with recorder:
            traced = run_rep(lane, rep_seed, drive_marks=recorder)
        if plain.failed or traced.failed:
            return plain, traced, None
        if rep_seed == seed:
            write_trace(RESULTS / f"trace-{lane.name}.json", lane, rep_seed, recorder)
        return plain, traced, per_layer(plain, traced, recorder)

    return measure(lane, seed, seconds, pair)


# ----------------------------------------------------------------------
# one workload


def run_workload(argv: list[str]) -> int:
    config = load_config()
    parser = argparse.ArgumentParser(description="Run one end-to-end workload.")
    parser.add_argument("--workload", required=True, choices=sorted(LANES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lane = LANES[args.workload]
    with checkout_tempdir():
        if args.trace:
            pairs = trace_pairs(lane, args.seed, args.seconds)
            reps = [rep for plain, traced, _ in pairs for rep in (plain, traced)]
            layers = [values for _, _, values in pairs if values is not None]
            specs = config["per_layer"]
            values = {
                spec["name"]: statistics.median(layer[spec["name"]] for layer in layers)
                for spec in specs
            } if layers else {}
        else:
            reps = measure(lane, args.seed, args.seconds, at_least=lane.reps)
            specs = config["end_to_end"]
            ran = any(rep.error is None for rep in reps[: lane.reps])
            values = end_to_end(lane, reps) if ran else {}

    failed = [rep for rep in reps if rep.failed]
    for rep in failed:
        print(f"rep seed={rep.seed} failed: {rep.error or rep.incorrect}", file=sys.stderr)
    if not values:
        print(f"{lane.name}: no rep ran to completion", file=sys.stderr)
        return 1
    meta: dict[str, Any] = {"reps": len(reps), "fail_rate": len(failed) / len(reps)}
    if not args.trace:
        meta.update(host_rates(lane, reps))

    print(f"{lane.name}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    for spec in specs:
        print(f"  {spec['name']:<30} {values[spec['name']]:>14.6g} {spec['unit']}")
    for name, value in meta.items():
        print(f"  {name:<30} {value:>14.6g}")
    print("meta " + json.dumps(meta))
    correct = not any(rep.incorrect for rep in reps)
    result = {
        "correct": correct,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in specs
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


# ----------------------------------------------------------------------
# all five workloads


def run_suite(argv: list[str]) -> int:
    config = load_config()
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e run",
        description="Run every workload, each in a fresh interpreter.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="report per-layer metrics")
    parser.add_argument(
        "--record", metavar="COMMIT", help="append the medians to BENCH_trajectory.jsonl"
    )
    args = parser.parse_args(argv)
    if args.record and args.trace:
        parser.error("--record takes the untraced metrics; drop --trace")
    ok = True
    workloads: dict[str, dict[str, float]] = {}
    for name in LANES:
        child = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", "1" if args.trace else "0",
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            ok = False
            continue
        lines = child.stdout.splitlines()
        metrics = json.loads(lines[-1])["metrics"]
        meta = json.loads(next(line[5:] for line in lines if line.startswith("meta ")))
        workloads[name] = {metric: value["value"] for metric, value in metrics.items()}
        workloads[name].update(meta)
    if args.record and ok:
        entry = {
            "commit": args.record,
            "seed": args.seed,
            "seconds": args.seconds,
            "calib_ops_per_s": statistics.median(
                values.pop("calib_ops_per_s") for values in workloads.values()
            ),
            "workloads": workloads,
        }
        with TRAJECTORY.open("a") as trajectory:
            trajectory.write(json.dumps(entry, sort_keys=True) + "\n")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["run"]:
        return run_suite(argv[1:])
    return run_workload(argv)


if __name__ == "__main__":
    sys.exit(main())
