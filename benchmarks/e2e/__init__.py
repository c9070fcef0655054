"""End-to-end benchmark of the probe detector on the sim, live and cluster transports.

One workload::

    python3 benchmarks/e2e/run.py --workload sim-cycle --seed 0 --seconds 15 --trace 0

All five, each in a fresh interpreter::

    python -m benchmarks.e2e run --seed 0 [--trace]

See ``benchmarks/e2e/README.md`` for the workloads, the metrics and the
layer each per-layer metric attributes time to.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: root of the checkout this benchmark sits in.
ROOT = Path(__file__).resolve().parents[2]

# Measure the source tree beside the benchmark, never an installed copy.
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
