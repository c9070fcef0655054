"""The conformance suite (``tests/transport/test_run_conformance.py``) on
the multi-process cluster: one worker OS process per node, every
delivery crossing real socket frames and process boundaries."""

from __future__ import annotations

from repro import runner
from repro.cluster.transport import ClusterTransport
from tests.transport.test_run_conformance import (
    TIME_SCALE,
    TIMEOUT,
    AdaptivePolicy,
    EveryVariant,
    TraceExport,
    run_on,
)


class TestEveryVariantOnCluster(EveryVariant):
    transport = "cluster"


class TestAdaptivePolicyOnCluster(AdaptivePolicy):
    transport = "cluster"


class TestTraceExportOnCluster(TraceExport):
    transport = "cluster"


def test_tcp_channel_passes_conformance(monkeypatch) -> None:
    """Loopback TCP instead of Unix sockets: same contract, same outcome."""
    built: list[ClusterTransport] = []
    make_transport = runner._make_transport

    def spy(*args, **kwargs):
        backend = make_transport(*args, **kwargs)
        built.append(backend)
        return backend

    monkeypatch.setattr(runner, "_make_transport", spy)
    report = run_on("cluster", "basic", "deadlock", tcp=True)
    assert [backend.channel for backend in built] == ["tcp"]
    assert report.ok
    assert report.workers is not None and report.workers >= 1
    assert report.messages_delivered > 0


def test_random_workload_detects_completely() -> None:
    """The large random workload: churn, deadlocks at random, QRP1 gate,
    one worker OS process per node."""
    transport = ClusterTransport(
        seed=1, trace=False, time_scale=TIME_SCALE, max_wall_seconds=30.0
    )
    report = runner.run(
        "basic",
        "random",
        transport=transport,
        seed=1,
        n_vertices=6,
        duration=30.0,
        timeout=30.0,
    )
    assert report.sound
    assert report.outcome.complete
    assert report.ok
    assert len(transport.worker_processes()) == 6
    assert report.workers == 6
