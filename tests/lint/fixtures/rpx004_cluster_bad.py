# lint-as: src/repro/obs/fixture.py
"""RPX004 failing fixture: harness code reaching up into the cluster driver.

The telemetry layer observing a run must not import the machinery that
spawns it: ``obs`` works against any transport's tracer, and a
harness -> cluster import would make single-process observation depend
on the multi-process runtime.
"""

from __future__ import annotations

import repro.cluster.transport  # expect: RPX004
from repro import cluster  # expect: RPX004
from repro.cluster.worker import backoff_delays  # expect: RPX004


def observe() -> object:
    from repro.cluster.frames import encode_value  # expect: RPX004

    return encode_value, backoff_delays, cluster, repro.cluster.transport
