#!/usr/bin/env python3
"""Validate a `repro run --json-out` report (schema ``repro.run-report/1``).

Used by the CI ``run-smoke`` matrix: every cell writes its report, and
this script checks the schema tag, the gate verdict (``ok``, which the
report derives from its soundness, bound and detection counts), and
that a declaration happened exactly when one was expected; a cluster
report must also count at least one worker process.  ``--nonempty``
also requires the named export files to have content.

Usage: python tools/check_run_report.py REPORT.json --detected true|false
           [--nonempty FILE ...]

Exit 0 when every check holds; exit 1 with one line per problem.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any

SCHEMA = "repro.run-report/1"


def problems(report: dict[str, Any], *, detected: bool) -> list[str]:
    """Everything wrong with one parsed report (empty when it passes)."""
    found: list[str] = []
    if report.get("schema") != SCHEMA:
        found.append(f"schema is {report.get('schema')!r}, want {SCHEMA!r}")
    if report.get("ok") is not True:
        found.append(f"gate failed: {report.get('failures')}")
    if report.get("detected") is not detected:
        found.append(f"detected is {report.get('detected')}, want {detected}")
    if report.get("transport") == "cluster" and not report.get("workers"):
        found.append("cluster run reports no worker processes")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Validate a `repro run` report.")
    parser.add_argument("report", type=Path)
    parser.add_argument("--detected", choices=("true", "false"), required=True)
    parser.add_argument("--nonempty", type=Path, nargs="*", default=[])
    args = parser.parse_args(argv)
    report = json.loads(args.report.read_text(encoding="utf-8"))
    found = problems(report, detected=args.detected == "true")
    found += [f"{path} is empty" for path in args.nonempty if not path.read_text().strip()]
    for problem in found:
        print(f"{args.report}: {problem}")
    if not found:
        summary = f"{report['transport']} {report['variant']} {report['scenario']}"
        print(f"{args.report}: ok ({summary})")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
