"""Failure injection: worker death is a typed report, never a hang.

The robustness half of the cluster contract: a worker process killed
mid-computation must surface as a :class:`~repro.errors.ClusterError`
carrying per-worker :class:`~repro.errors.WorkerFailure` records within
the run (not after a timeout, and never as a hang); a slow-starting or
connection-flaky worker must be absorbed by the deterministic connect
retry/backoff schedule.  All hooks ride worker environment variables
documented in :mod:`repro.cluster.worker`.
"""

from __future__ import annotations

import asyncio
import signal
import time

import pytest

from repro.cluster.transport import ClusterTransport
from repro.cluster.worker import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    CRASH_EXIT_CODE,
    backoff_delays,
)
from repro.errors import ClusterError, SimulationError
from repro.runner import RunReport, run
from repro.sim import categories

TIME_SCALE = 0.002
TIMEOUT = 15.0


def run_with_worker_env(worker_env: dict[str, str]) -> RunReport:
    """The basic deadlock scenario on a cluster whose workers carry the
    given failure-injection hooks."""
    transport = ClusterTransport(
        seed=0,
        trace=False,
        time_scale=TIME_SCALE,
        max_wall_seconds=TIMEOUT,
        worker_env=worker_env,
    )
    return run("basic", "deadlock", transport=transport, timeout=TIMEOUT)


class TestWorkerCrash:
    def test_mid_run_crash_raises_typed_partial_run_error(self) -> None:
        started = time.perf_counter()
        with pytest.raises(ClusterError) as excinfo:
            run_with_worker_env({"REPRO_CLUSTER_TEST_EXIT_AFTER": "2"})
        elapsed = time.perf_counter() - started
        # detected via EOF/exit status, far inside the wall budget -- the
        # whole point: a dead worker is a report, not a timeout.
        assert elapsed < TIMEOUT / 2, f"took {elapsed:.1f}s; crash path hung"
        error = excinfo.value
        assert error.failures, "ClusterError must carry WorkerFailure records"
        failure = error.failures[0]
        assert failure.worker >= 0
        assert failure.reason
        assert str(failure.worker) in str(error) or failure.node in str(error)

    def test_crash_exit_code_is_recorded_when_watchdog_sees_it(self) -> None:
        # Drive the transport directly so the failure list stays readable
        # after the raise.
        transport = ClusterTransport(
            seed=0,
            time_scale=TIME_SCALE,
            max_wall_seconds=TIMEOUT,
            worker_env={"REPRO_CLUSTER_TEST_EXIT_AFTER": "1"},
        )
        try:

            class Echo:
                def __init__(self, pid):
                    self.pid = pid
                    self.ctx = None

                def attach_context(self, ctx):
                    self.ctx = ctx

                def on_message(self, sender, message):
                    if isinstance(message, int) and message < 50:
                        self.ctx.send(sender, message + 1)

            a, b = Echo("a"), Echo("b")
            transport.register(a)
            transport.register(b)
            a.ctx.send("b", 0)
            with pytest.raises(ClusterError):
                transport.run_to_quiescence()
            assert transport.worker_failures
            recorded = {f.returncode for f in transport.worker_failures}
            # EOF may be seen before the process is reaped; when the exit
            # status made it into the record it must be the crash code.
            assert recorded <= {None, CRASH_EXIT_CODE}
        finally:
            transport.close()


class TestConnectRobustness:
    def test_slow_starting_worker_is_awaited(self) -> None:
        report = run_with_worker_env({"REPRO_CLUSTER_TEST_STARTUP_DELAY": "0.6"})
        assert report.ok

    def test_connect_failures_recovered_by_backoff(self) -> None:
        report = run_with_worker_env({"REPRO_CLUSTER_TEST_CONNECT_FAILS": "2"})
        assert report.ok

    def test_bring_up_ends_at_the_last_hello(self, monkeypatch) -> None:
        # Stretch bring-up's 20 ms poll to 5 s.  A bring-up that sleeps out
        # the poll it was in when the last worker bound ends seconds after
        # that ``hello``; one the ``hello`` wakes ends at once.
        stretched = 5.0
        sleep, wait = asyncio.sleep, asyncio.wait

        def slow_sleep(delay, *args, **kwargs):
            return sleep(stretched if delay == 0.02 else delay, *args, **kwargs)

        def slow_wait(futures, *, timeout=None, **kwargs):
            timeout = stretched if timeout == 0.02 else timeout
            return wait(futures, timeout=timeout, **kwargs)

        class Node:
            def __init__(self, pid):
                self.pid = pid

            def attach_context(self, ctx):
                pass

            def on_message(self, sender, message):
                pass

        transport = ClusterTransport(
            seed=0, time_scale=TIME_SCALE, max_wall_seconds=TIMEOUT
        )
        ready: list[float] = []
        transport.tracer.subscribe(
            lambda event: ready.append(time.perf_counter()),
            categories=(categories.CLUSTER_WORKER_READY,),
        )
        try:
            transport.register(Node("a"))
            transport.register(Node("b"))
            with monkeypatch.context() as patch:
                patch.setattr(asyncio, "sleep", slow_sleep)
                patch.setattr(asyncio, "wait", slow_wait)
                transport.run(max_events=0)
            brought_up = time.perf_counter()
        finally:
            transport.close()
        assert len(ready) == 2
        assert brought_up - max(ready) < stretched / 2

    def test_teardown_ends_when_the_last_worker_leaves(self, monkeypatch) -> None:
        # Stretch teardown's 20 ms polls to 5 s.  A teardown that sleeps out
        # the poll it was in when the last worker left ends seconds after
        # the exit; one the closing connection wakes ends at once.
        stretched = 5.0
        sleep, wait = asyncio.sleep, asyncio.wait

        def slow_sleep(delay, *args, **kwargs):
            return sleep(stretched if delay == 0.02 else delay, *args, **kwargs)

        def slow_wait(futures, *, timeout=None, **kwargs):
            timeout = stretched if timeout == 0.02 else timeout
            return wait(futures, timeout=timeout, **kwargs)

        class Node:
            def __init__(self, pid):
                self.pid = pid

            def attach_context(self, ctx):
                pass

            def on_message(self, sender, message):
                pass

        transport = ClusterTransport(
            seed=0, time_scale=TIME_SCALE, max_wall_seconds=TIMEOUT
        )
        try:
            transport.register(Node("a"))
            transport.register(Node("b"))
            transport.run(max_events=0)
            processes = list(transport.worker_processes().values())
        finally:
            with monkeypatch.context() as patch:
                patch.setattr(asyncio, "sleep", slow_sleep)
                patch.setattr(asyncio, "wait", slow_wait)
                started = time.perf_counter()
                transport.close()
                closed = time.perf_counter()
        assert closed - started < stretched / 2
        # Each worker left on its shutdown frame, not by SIGKILL.
        assert [process.returncode for process in processes] == [0, 0]

    def test_connect_timeout_is_a_typed_bring_up_failure(self) -> None:
        transport = ClusterTransport(
            seed=0,
            time_scale=TIME_SCALE,
            max_wall_seconds=TIMEOUT,
            connect_timeout=0.5,
            worker_env={"REPRO_CLUSTER_TEST_STARTUP_DELAY": "30"},
        )
        try:

            class Node:
                pid = "n"

                def attach_context(self, ctx):
                    pass

                def on_message(self, sender, message):
                    pass

            transport.register(Node())
            with pytest.raises(ClusterError, match="connect_timeout"):
                transport.run_to_quiescence()
            # a failed bring-up poisons the transport
            with pytest.raises(SimulationError, match="closed"):
                transport.run_to_quiescence()
        finally:
            transport.close()

    def test_failed_bring_up_kills_the_unconnected_worker_at_once(self) -> None:
        # No shutdown frame can reach a worker that never connected, so
        # teardown kills it rather than waiting out the 2 s shutdown grace:
        # the typed failure arrives soon after the 0.5 s connect timeout.
        transport = ClusterTransport(
            seed=0,
            time_scale=TIME_SCALE,
            max_wall_seconds=TIMEOUT,
            connect_timeout=0.5,
            worker_env={"REPRO_CLUSTER_TEST_STARTUP_DELAY": "30"},
        )

        class Node:
            pid = "n"

            def attach_context(self, ctx):
                pass

            def on_message(self, sender, message):
                pass

        try:
            transport.register(Node())
            started = time.perf_counter()
            with pytest.raises(ClusterError, match="connect_timeout"):
                transport.run_to_quiescence()
            failed = time.perf_counter()
            processes = list(transport.worker_processes().values())
        finally:
            transport.close()
        assert failed - started < 1.5
        assert [process.returncode for process in processes] == [-signal.SIGKILL]


class TestBackoffSchedule:
    def test_deterministic_exponential_capped(self) -> None:
        delays = backoff_delays()
        assert delays == backoff_delays()  # no jitter, fully reproducible
        assert delays[0] == BACKOFF_BASE
        for earlier, later in zip(delays, delays[1:]):
            assert later >= earlier
        assert max(delays) == BACKOFF_CAP
        assert all(delay <= BACKOFF_CAP for delay in delays)

    def test_schedule_shape(self) -> None:
        assert backoff_delays(attempts=4, base=0.1, cap=0.5) == [0.1, 0.2, 0.4, 0.5]


class TestRegistrationGuards:
    def test_register_after_start_is_rejected(self) -> None:
        transport = ClusterTransport(seed=0, time_scale=TIME_SCALE, max_wall_seconds=TIMEOUT)
        try:

            class Node:
                def __init__(self, pid):
                    self.pid = pid

                def attach_context(self, ctx):
                    pass

                def on_message(self, sender, message):
                    pass

            transport.register(Node("a"))
            transport.run_to_quiescence()
            with pytest.raises(SimulationError, match="after the first"):
                transport.register(Node("b"))
        finally:
            transport.close()
