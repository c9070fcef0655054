#!/usr/bin/env python3
"""Validate a `repro run --json-out` report (schema ``repro.run-report/1``).

Used by the CI ``run-smoke`` matrix: every cell writes its report, and
this script checks the schema tag, the gate verdict (``ok``, which the
report derives from its soundness, bound and detection counts), and
that a declaration happened exactly when one was expected.  A report
that detected must count at least one delivered message (a declaration
needs a delivered probe), so a delivery count that silently reads 0
fails; a cluster report must also count at least one worker process.
``--nonempty`` also requires the named export files to have content.
``--families`` checks the run's last Prometheus export against the
report: a run that delivered messages exports at least one
``repro_channel_in_flight`` and one ``repro_messages_total`` series, the
sends sum to the messages delivered (the run quiesced, so every send was
delivered), and no channel is left in flight.  The telemetry builds
those per-channel families when an export reads it, so a stale or empty
export fails here.  ``--counts`` checks the transport's event counts in
the run's last snapshot line: ``transport_counters`` maps names to
positive ints, and its ``*.computations.initiated`` counts sum to the
spans the report emitted (each initiated computation settles into one
span by quiescence), so counts that are lost or bumped twice fail here.

Usage: python tools/check_run_report.py REPORT.json --detected true|false
           [--nonempty FILE ...] [--families METRICS.prom]
           [--counts SNAPSHOTS.jsonl]

Exit 0 when every check holds; exit 1 with one line per problem.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any

SCHEMA = "repro.run-report/1"
#: the per-channel families every run that delivered a message exports.
CHANNEL_FAMILIES = ("repro_channel_in_flight", "repro_messages_total")


def problems(report: dict[str, Any], *, detected: bool) -> list[str]:
    """Everything wrong with one parsed report (empty when it passes)."""
    found: list[str] = []
    if report.get("schema") != SCHEMA:
        found.append(f"schema is {report.get('schema')!r}, want {SCHEMA!r}")
    if report.get("ok") is not True:
        found.append(f"gate failed: {report.get('failures')}")
    if report.get("detected") is not detected:
        found.append(f"detected is {report.get('detected')}, want {detected}")
    delivered = report.get("messages_delivered")
    if report.get("detected") is True and not (type(delivered) is int and delivered > 0):
        found.append(f"detected with messages_delivered {delivered!r}, want > 0")
    if report.get("transport") == "cluster" and not report.get("workers"):
        found.append("cluster run reports no worker processes")
    return found


def family_problems(report: dict[str, Any], prometheus: str) -> list[str]:
    """Everything wrong with a run's last Prometheus export, given its report."""
    samples: dict[str, list[float]] = {name: [] for name in CHANNEL_FAMILIES}
    for line in prometheus.splitlines():
        name, _, rest = line.partition("{")
        if name in samples:
            samples[name].append(float(rest.rpartition(" ")[2]))
    delivered = report.get("messages_delivered")
    found: list[str] = []
    if delivered:
        found += [
            f"no {name} series, but {delivered} messages delivered"
            for name, values in samples.items()
            if not values
        ]
    sent = sum(samples["repro_messages_total"])
    if sent != delivered:
        found.append(f"repro_messages_total sums to {sent:g}, want {delivered!r} (delivered)")
    busy = sum(1 for value in samples["repro_channel_in_flight"] if value)
    if busy:
        found.append(f"repro_channel_in_flight is nonzero on {busy} channel(s) at quiescence")
    return found


def count_problems(report: dict[str, Any], snapshots: str) -> list[str]:
    """Everything wrong with the counts in a run's last snapshot line."""
    lines = snapshots.splitlines()
    if not lines:
        return ["no snapshot line"]
    counts = json.loads(lines[-1]).get("transport_counters")
    if not isinstance(counts, dict):
        return [f"transport_counters is {counts!r}, want an object"]
    found = [
        f"count {name!r} is {value!r}, want a positive int"
        for name, value in counts.items()
        if not (type(value) is int and value > 0)
    ]
    initiated = sum(
        value
        for name, value in counts.items()
        if name.endswith(".computations.initiated") and type(value) is int
    )
    spans = report.get("spans_emitted")
    if initiated != spans:
        found.append(
            f"*.computations.initiated sum to {initiated}, want {spans!r} (spans emitted)"
        )
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Validate a `repro run` report.")
    parser.add_argument("report", type=Path)
    parser.add_argument("--detected", choices=("true", "false"), required=True)
    parser.add_argument("--nonempty", type=Path, nargs="*", default=[])
    parser.add_argument("--families", type=Path, metavar="METRICS.prom")
    parser.add_argument("--counts", type=Path, metavar="SNAPSHOTS.jsonl")
    args = parser.parse_args(argv)
    report = json.loads(args.report.read_text(encoding="utf-8"))
    found = problems(report, detected=args.detected == "true")
    found += [f"{path} is empty" for path in args.nonempty if not path.read_text().strip()]
    if args.families is not None:
        found += [
            f"{args.families}: {problem}"
            for problem in family_problems(report, args.families.read_text())
        ]
    if args.counts is not None:
        found += [
            f"{args.counts}: {problem}"
            for problem in count_problems(report, args.counts.read_text())
        ]
    for problem in found:
        print(f"{args.report}: {problem}")
    if not found:
        summary = f"{report['transport']} {report['variant']} {report['scenario']}"
        print(f"{args.report}: ok ({summary})")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
