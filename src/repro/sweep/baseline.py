"""The quick benchmark tier: throughput baselines + sweep shape hashes.

``repro bench record`` writes ``BENCH_baseline.json``: the throughput of
four engine micro-benchmarks (mirroring
``benchmarks/bench_engine_throughput.py``) and a SHA-256 of the canonical
quick-grid document for every shipped sweep grid.  ``repro bench check``
re-measures and fails when

* any micro-benchmark's throughput falls more than ``threshold`` (default
  25%) below its recorded baseline -- a hot-path performance regression;
* any grid's shape hash differs -- a *behavioural* change to experiment
  results (which must be deliberate: re-record with ``repro bench record``
  or, in CI, push a commit whose message contains ``[bench-reset]``).

Throughput is measured in events per *calibration op*: each repeat's
events/sec divided by the speed of a fixed pure-python loop timed just
before and just after it (:func:`calibrate`, the end-to-end benchmark's
calibration).  A host that is uniformly slower -- another machine, or a
shared one whose speed swings between runs -- slows the loop and the
micro-benchmark alike, so the ratio measures the code rather than the
host.  Shape hashes are deterministic for a given interpreter -- see
:mod:`repro.sweep.merge` -- but Python 3.12 sums floats more exactly
than 3.10 and 3.11, so four grids hash differently there; the committed
hashes are the 3.10/3.11 ones.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

from repro.sweep.grids import GRIDS, build_grid
from repro.sweep.merge import canonical_json, merge_results
from repro.sweep.runner import run_sweep

SCHEMA = "repro.bench/2"

#: Micro-benchmark repeat count; the best (max events per calibration op)
#: of the repeats is used, which is the standard way to damp scheduler
#: noise on CI runners.
REPEATS = 5

#: Iterations of the calibration loop.  The recorded floors are in units
#: of this loop, so it is fixed: another size would record numbers that
#: cannot be compared with the baseline.
_CALIBRATION_ITERATIONS = 40_000


def calibrate() -> float:
    """Iterations per second of a fixed pure-python loop.

    The same loop as ``benchmarks/e2e/lanes.calibrate`` (``src/`` may not
    import ``benchmarks/``), so both tiers count time in the same units.
    """
    start = time.perf_counter()
    total = 0
    table: dict[int, int] = {}
    for i in range(_CALIBRATION_ITERATIONS):
        total = (total + i * i) % 1_000_003
        table[i & 1023] = total
    return _CALIBRATION_ITERATIONS / (time.perf_counter() - start)


def _bench_event_loop() -> tuple[int, float]:
    """Schedule-and-run 10k trivial events (engine core only)."""
    from repro.sim.simulator import Simulator

    simulator = Simulator(seed=0, trace=False)
    for i in range(10_000):
        simulator.schedule(float(i % 97) * 0.01, lambda: None)
    started = time.perf_counter()
    simulator.run()
    return simulator.events_executed, time.perf_counter() - started


def _bench_network() -> tuple[int, float]:
    """Send 5k messages through the FIFO network."""
    from repro.sim.network import Network
    from repro.sim.process import Process
    from repro.sim.simulator import Simulator

    class Sink(Process):
        def on_message(self, sender: object, message: object) -> None:
            pass

    simulator = Simulator(seed=0, trace=False)
    network = Network(simulator)
    source = Sink(0)
    network.register(source)
    network.register(Sink(1))
    for i in range(5_000):
        source.send(1, i)
    started = time.perf_counter()
    simulator.run()
    return simulator.events_executed, time.perf_counter() - started


def _bench_cycle64() -> tuple[int, float]:
    """Detect a 64-cycle deadlock end to end (tracing disabled)."""
    from repro.core.registry import get_variant
    from repro.workloads.scenarios import schedule_cycle

    system = get_variant("basic").build(n_vertices=64, seed=0, trace=False)
    schedule_cycle(system, list(range(64)), gap=0.1)
    started = time.perf_counter()
    system.run_to_quiescence()
    elapsed = time.perf_counter() - started
    assert system.declarations, "64-cycle must be detected"
    return system.simulator.events_executed, elapsed


def _bench_monitor_stream() -> tuple[int, float]:
    """Detect a 64-cycle deadlock with the streaming span engine attached.

    The monitored ``repro run`` configuration: ``trace=False`` (nothing
    buffered) plus a category-scoped subscription folding spans online.
    Ratcheting this next to ``engine.cycle64`` keeps the telemetry
    layer's overhead on the detection hot path honest.
    """
    from repro.core.registry import get_variant
    from repro.obs.spans import BASIC_SPAN_SCHEMA
    from repro.obs.stream import StreamingSpanEngine
    from repro.workloads.scenarios import schedule_cycle

    system = get_variant("basic").build(n_vertices=64, seed=0, trace=False)
    engine = StreamingSpanEngine(BASIC_SPAN_SCHEMA, n_vertices=64)
    engine.attach(system.simulator.tracer)
    schedule_cycle(system, list(range(64)), gap=0.1)
    started = time.perf_counter()
    system.run_to_quiescence()
    elapsed = time.perf_counter() - started
    engine.finish()
    assert engine.emitted, "the monitored 64-cycle must settle spans"
    return system.simulator.events_executed, elapsed


MICRO_BENCHMARKS: dict[str, Callable[[], tuple[int, float]]] = {
    "engine.event_loop": _bench_event_loop,
    "engine.network": _bench_network,
    "engine.cycle64": _bench_cycle64,
    "obs.monitor_stream": _bench_monitor_stream,
}


def measure_throughput(repeats: int = REPEATS) -> dict[str, float]:
    """Best-of-``repeats`` events per calibration op for each micro-benchmark.

    The host's speed is the geometric mean of two calibrations, one just
    before and one just after the repeat.
    """
    throughput: dict[str, float] = {}
    for name, bench in MICRO_BENCHMARKS.items():
        best = 0.0
        for _ in range(repeats):
            before = calibrate()
            events, elapsed = bench()
            ops_per_s = math.sqrt(before * calibrate())
            if elapsed > 0:
                best = max(best, events / (elapsed * ops_per_s))
        throughput[name] = float(f"{best:.6g}")
    return throughput


def shape_hash(grid_name: str, workers: int = 1) -> str:
    """SHA-256 of the canonical quick-grid document for one grid."""
    grid = build_grid(grid_name, quick=True)
    document = canonical_json(merge_results(grid.name, run_sweep(grid.cells, workers)))
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def measure_shapes(grids: tuple[str, ...] = GRIDS) -> dict[str, str]:
    return {name: shape_hash(name) for name in grids}


def record(path: Path, repeats: int = REPEATS) -> dict[str, Any]:
    """Measure everything and write the baseline document to ``path``."""
    document = {
        "schema": SCHEMA,
        "throughput": measure_throughput(repeats),
        "shapes": measure_shapes(),
    }
    path.write_text(canonical_json(document), encoding="utf-8")
    return document


class BenchRegression(Exception):
    """Raised by :func:`check` when the quick tier fails."""


def check(
    path: Path, threshold: float = 0.25, repeats: int = REPEATS
) -> list[str]:
    """Compare a fresh measurement against the committed baseline.

    Returns human-readable report lines; raises :class:`BenchRegression`
    (after measuring everything) if any throughput ratio drops below
    ``1 - threshold`` or any shape hash changed.
    """
    baseline = json.loads(path.read_text(encoding="utf-8"))
    if baseline.get("schema") != SCHEMA:
        raise BenchRegression(f"unrecognised baseline schema in {path}")
    lines: list[str] = []
    failures: list[str] = []

    current = measure_throughput(repeats)
    for name, recorded in sorted(baseline["throughput"].items()):
        measured = current.get(name)
        if measured is None:
            failures.append(f"missing micro-benchmark {name!r}")
            continue
        ratio = measured / recorded if recorded else float("inf")
        verdict = "ok" if ratio >= 1.0 - threshold else "REGRESSION"
        lines.append(
            f"throughput {name}: {measured:>12.6g} ev/op "
            f"(baseline {recorded:.6g}, x{ratio:.2f}) {verdict}"
        )
        if verdict != "ok":
            failures.append(
                f"{name} regressed to x{ratio:.2f} of baseline "
                f"(floor x{1 - threshold:.2f})"
            )

    shapes = measure_shapes(tuple(sorted(baseline["shapes"])))
    for name, recorded_hash in sorted(baseline["shapes"].items()):
        measured_hash = shapes[name]
        match = measured_hash == recorded_hash
        lines.append(
            f"shape {name}: {measured_hash[:16]}... "
            f"{'ok' if match else 'CHANGED (was ' + recorded_hash[:16] + '...)'}"
        )
        if not match:
            failures.append(
                f"grid {name!r} shape changed -- if intentional, re-record the "
                "baseline (repro bench record) or push with [bench-reset]"
            )

    if failures:
        raise BenchRegression("; ".join(failures))
    return lines
