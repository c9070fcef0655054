"""Multi-process cluster backend of the transport seam.

:class:`ClusterTransport` is the third :class:`~repro.core.transport.Transport`
backend: a coordinator process that spawns **one worker OS process per
registered node** (vertices, and controllers on the DDB model) and routes
every message through that node's worker over a real socket -- Unix-domain
by default, TCP on request -- as length-prefixed JSON frames
(:mod:`repro.cluster.frames`).

Division of labour
------------------
Handlers, the verification oracle, and declaration bookkeeping stay in
the coordinator: the paper's soundness checking consults a shared
wait-for-graph oracle *at the instant of declaration*, which only exists
in one address space.  What moves out of process is the entire delivery
path -- the part the paper axiomatises:

* ``send()`` samples the seeded injected delay (inherited from
  :class:`~repro.live.transport.AsyncioTransport`), serializes the
  message, and frames it to the **destination's** worker;
* the worker queues it per inbound channel, sleeps until the virtual due
  time on its own clock, and echoes a ``deliver`` frame back;
* the coordinator decodes the returned payload (the delivered message is
  rebuilt from wire bytes, not the original object) and runs the handler
  atomically on its single-threaded loop.

Per-channel FIFO (axiom P4) holds end to end by construction: frames on
one socket arrive in write order, the worker drains each channel with one
serial consumer, and deliver frames return on one ordered stream.  The
``fifo=False`` ablation marks frames ``loose``; workers then sleep each
message independently and reordering becomes possible, exactly as on the
other two backends.

Robustness
----------
Workers connect back with deterministic retry/backoff and announce
themselves with a ``hello`` frame; the coordinator enforces a
``connect_timeout`` on bring-up.  Live workers heartbeat every
``heartbeat_interval`` seconds; a dead process, a broken connection, or
a stale heartbeat surfaces as a typed
:class:`~repro.errors.ClusterError` carrying
:class:`~repro.errors.WorkerFailure` records -- a partial-run report,
never a hang.  ``close()`` shuts down gracefully: a ``shutdown`` frame
per worker, a bounded wait, then SIGKILL for stragglers.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections.abc import Hashable
from pathlib import Path
from typing import Any

from repro.cluster.frames import (
    decode_value,
    encode_frame,
    encode_value,
    read_frame,
    write_frame,
)
from repro.errors import ClusterError, SimulationError, WorkerFailure
from repro.live.transport import AsyncioTransport, LiveNodeContext
from repro.sim import categories
from repro.sim.network import DelayModel

#: the worker program, spawned by file path so that worker start-up does
#: not import the repro package (it is stdlib-only by design).
_WORKER_PATH = Path(__file__).with_name("worker.py")
#: wall seconds granted for graceful worker exit before SIGKILL.
_SHUTDOWN_GRACE = 2.0
#: bytes of captured worker stderr echoed into a WorkerFailure.
_STDERR_TAIL = 2000


class _WorkerLink:
    """Coordinator-side state for one worker process."""

    __slots__ = (
        "connected",
        "failed",
        "index",
        "last_seen",
        "node",
        "outbox",
        "pid",
        "process",
        "reader",
        "reader_task",
        "stderr_path",
        "writer",
        "writer_task",
    )

    def __init__(self, index: int, node: Hashable) -> None:
        self.index = index
        self.node = node
        self.process: subprocess.Popen[bytes] | None = None
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.outbox: asyncio.Queue[dict[str, Any]] = asyncio.Queue()
        self.writer_task: asyncio.Task[None] | None = None
        self.reader_task: asyncio.Task[None] | None = None
        self.connected = asyncio.Event()
        self.last_seen = 0.0
        self.failed = False
        self.pid: int | None = None
        self.stderr_path: str | None = None


class ClusterTransport(AsyncioTransport):
    """The multi-process backend of the transport contract.

    Parameters extend :class:`~repro.live.transport.AsyncioTransport`
    (the factory signature stays ``(seed, delay_model, trace, fifo)``)
    with cluster knobs:

    channel:
        ``"unix"`` (default) for Unix-domain sockets in a private
        tempdir, ``"tcp"`` for loopback TCP on an ephemeral port.
    heartbeat_interval:
        Worker heartbeat period in wall seconds; a worker silent for
        ``max(4 * interval, 2.0)`` seconds is declared lost.
    connect_timeout:
        Wall seconds each worker gets to dial back during bring-up.
    worker_env:
        Extra environment variables for spawned workers (the failure
        injection hooks documented in :mod:`repro.cluster.worker`).
    """

    name = "cluster"

    def __init__(
        self,
        seed: int = 0,
        delay_model: DelayModel | None = None,
        trace: bool = True,
        fifo: bool = True,
        *,
        time_scale: float = 0.005,
        max_wall_seconds: float = 30.0,
        channel: str = "unix",
        heartbeat_interval: float = 0.5,
        connect_timeout: float = 10.0,
        worker_env: dict[str, str] | None = None,
    ) -> None:
        if channel not in ("unix", "tcp"):
            raise SimulationError(f"channel must be 'unix' or 'tcp', got {channel!r}")
        if heartbeat_interval <= 0:
            raise SimulationError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        super().__init__(
            seed,
            delay_model,
            trace,
            fifo,
            time_scale=time_scale,
            max_wall_seconds=max_wall_seconds,
        )
        self.channel = channel
        self.heartbeat_interval = heartbeat_interval
        self.connect_timeout = connect_timeout
        self.worker_env = dict(worker_env) if worker_env else {}
        self._stale_after = max(4.0 * heartbeat_interval, 2.0)
        self._links: list[_WorkerLink] = []
        self._node_index: dict[Hashable, int] = {}
        self._channel_keys: dict[Hashable, str] = {}
        self._failures: list[WorkerFailure] = []
        self._tempdir: str | None = None
        self._server: asyncio.AbstractServer | None = None
        self._watcher: asyncio.Task[None] | None = None
        self._brought_up = False
        self._closing = False
        self._seq = 0

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------

    def register(self, process: Any) -> LiveNodeContext:
        """Register a node; its worker is spawned at the first ``run*``."""
        if self._brought_up or self._origin is not None:
            raise SimulationError(
                "cluster transport cannot register processes after the first "
                "run: workers are spawned at start"
            )
        ctx = super().register(process)
        index = len(self._links)
        self._node_index[process.pid] = index
        self._links.append(_WorkerLink(index=index, node=process.pid))
        return ctx

    @property
    def worker_failures(self) -> tuple[WorkerFailure, ...]:
        """Workers known dead so far (empty on a healthy run)."""
        return tuple(self._failures)

    def worker_processes(self) -> dict[int, subprocess.Popen[bytes]]:
        """Live handles of the spawned workers, by index (test/ops hook)."""
        return {
            link.index: link.process
            for link in self._links
            if link.process is not None
        }

    # ------------------------------------------------------------------
    # Dispatch: coordinator -> worker
    # ------------------------------------------------------------------

    def _channel_key(self, sender: Hashable) -> str:
        key = self._channel_keys.get(sender)
        if key is None:
            key = json.dumps(encode_value(sender), sort_keys=True)
            self._channel_keys[sender] = key
        return key

    def _dispatch(self, delivery: tuple[float, Hashable, Hashable, Any]) -> None:
        due, sender, destination, message = delivery
        link = self._links[self._node_index[destination]]
        self._seq += 1
        link.outbox.put_nowait(
            {
                "kind": "msg",
                "channel": self._channel_key(sender),
                "src": encode_value(sender),
                "dst": encode_value(destination),
                "due": due,
                "seq": self._seq,
                "loose": not self.fifo,
                "payload": encode_value(message),
            }
        )

    # ------------------------------------------------------------------
    # Bring-up
    # ------------------------------------------------------------------

    def _start(self) -> None:
        if self._closed or self._closing:
            raise SimulationError("transport is closed")
        if self._origin is not None:
            return
        if self._links and not self._brought_up:
            try:
                self._loop.run_until_complete(self._bring_up())
            except BaseException:
                self._loop.run_until_complete(self._teardown())
                raise
            self._brought_up = True
            self._watcher = self._loop.create_task(self._watch())
        super()._start()
        # The start frame anchors each worker's virtual-time origin just
        # after the coordinator's.  It is written now, not queued for the
        # loop's next spin: a run that is over before its first event never
        # spins the loop.  It still precedes every message frame on the
        # wire, since those wait in the outboxes until the write loops run.
        start = encode_frame({"kind": "start", "time_scale": self.time_scale})
        for link in self._links:
            assert link.writer is not None
            link.writer.write(start)

    async def _bring_up(self) -> None:
        self._tempdir = tempfile.mkdtemp(prefix="repro-cluster-")
        if self.channel == "unix":
            socket_path = os.path.join(self._tempdir, "coordinator.sock")
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=socket_path
            )
            spec = f"unix:{socket_path}"
        else:
            self._server = await asyncio.start_server(
                self._on_connection, "127.0.0.1", 0
            )
            port = self._server.sockets[0].getsockname()[1]
            spec = f"tcp:127.0.0.1:{port}"
        env = {**os.environ, **self.worker_env}
        for link in self._links:
            link.stderr_path = os.path.join(
                self._tempdir, f"worker-{link.index}.log"
            )
            with open(link.stderr_path, "wb") as log:
                link.process = subprocess.Popen(
                    [
                        sys.executable,
                        str(_WORKER_PATH),
                        "--connect",
                        spec,
                        "--index",
                        str(link.index),
                        "--heartbeat",
                        str(self.heartbeat_interval),
                    ],
                    stdout=log,
                    stderr=log,
                    env=env,
                )
        deadline = self._loop.time() + self.connect_timeout
        while not all(link.connected.is_set() for link in self._links):
            for link in self._links:
                process = link.process
                if process is None or link.connected.is_set():
                    continue
                returncode = process.poll()
                if returncode is not None:
                    raise ClusterError(
                        "cluster bring-up failed",
                        failures=(
                            self._failure_record(
                                link,
                                f"worker exited with code {returncode} "
                                "before connecting",
                            ),
                        ),
                    )
            if self._loop.time() > deadline:
                missing = [
                    link for link in self._links if not link.connected.is_set()
                ]
                raise ClusterError(
                    f"{len(missing)} worker(s) did not connect within "
                    f"connect_timeout={self.connect_timeout}s",
                    failures=tuple(
                        self._failure_record(link, "never connected")
                        for link in missing
                    ),
                )
            await asyncio.sleep(0.02)

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            frame = await read_frame(reader)
        except ClusterError:
            writer.close()
            return
        if frame is None or frame.get("kind") != "hello":
            writer.close()
            return
        index = int(frame["index"])
        if not 0 <= index < len(self._links):
            writer.close()
            return
        link = self._links[index]
        link.reader = reader
        link.writer = writer
        link.pid = int(frame.get("pid", 0)) or None
        link.last_seen = self._loop.time()
        link.writer_task = self._loop.create_task(self._write_loop(link))
        link.reader_task = asyncio.current_task()
        link.connected.set()
        if self.tracer.wants(categories.CLUSTER_WORKER_READY):
            self.tracer.record(
                self.now,
                categories.CLUSTER_WORKER_READY,
                worker=link.index,
                node=link.node,
                pid=link.pid,
            )
        await self._read_loop(link)

    # ------------------------------------------------------------------
    # Per-worker I/O loops
    # ------------------------------------------------------------------

    async def _write_loop(self, link: _WorkerLink) -> None:
        assert link.writer is not None
        try:
            while True:
                frame = await link.outbox.get()
                await write_frame(link.writer, frame)
        except (OSError, ConnectionError) as error:
            self._worker_lost(link, f"write to worker failed: {error}")

    async def _read_loop(self, link: _WorkerLink) -> None:
        assert link.reader is not None
        try:
            while True:
                frame = await read_frame(link.reader)
                if frame is None:
                    self._worker_lost(link, "connection closed unexpectedly")
                    return
                kind = frame.get("kind")
                if kind == "heartbeat":
                    link.last_seen = self._loop.time()
                elif kind == "deliver":
                    delivery = (
                        float(frame["due"]),
                        decode_value(frame["src"]),
                        decode_value(frame["dst"]),
                        decode_value(frame["payload"]),
                    )
                    self._guarded(self._deliver, delivery)
                else:
                    self._worker_lost(link, f"sent unknown frame kind {kind!r}")
                    return
        except ClusterError as error:
            self._worker_lost(link, str(error))
        except (OSError, ConnectionError) as error:
            self._worker_lost(link, f"connection error: {error}")

    async def _watch(self) -> None:
        """Process-exit and heartbeat watchdog.

        The loop only spins inside ``run*`` calls, so a long pause between
        runs would make every heartbeat look stale on resume; the watcher
        detects its *own* delay and re-baselines instead of flagging.
        """
        interval = self.heartbeat_interval
        last_tick = self._loop.time()
        while True:
            await asyncio.sleep(interval)
            now = self._loop.time()
            paused = now - last_tick > interval * 2
            last_tick = now
            for link in self._links:
                if link.failed:
                    continue
                process = link.process
                returncode = None if process is None else process.poll()
                if returncode is not None:
                    self._worker_lost(
                        link, f"worker process exited with code {returncode}"
                    )
                elif paused:
                    link.last_seen = now
                elif now - link.last_seen > self._stale_after:
                    self._worker_lost(
                        link,
                        f"no heartbeat for {now - link.last_seen:.1f}s "
                        f"(interval {interval:g}s)",
                    )

    # ------------------------------------------------------------------
    # Failure reporting
    # ------------------------------------------------------------------

    def _failure_record(self, link: _WorkerLink, reason: str) -> WorkerFailure:
        returncode = None if link.process is None else link.process.poll()
        detail = ""
        if link.stderr_path is not None:
            try:
                detail = (
                    Path(link.stderr_path)
                    .read_text(errors="replace")[-_STDERR_TAIL:]
                    .strip()
                )
            except OSError:
                detail = ""
        return WorkerFailure(
            worker=link.index,
            node=repr(link.node),
            reason=reason,
            returncode=returncode,
            detail=detail,
        )

    def _worker_lost(self, link: _WorkerLink, reason: str) -> None:
        if self._closing or link.failed:
            return
        link.failed = True
        failure = self._failure_record(link, reason)
        self._failures.append(failure)
        if self.tracer.wants(categories.CLUSTER_WORKER_FAILED):
            self.tracer.record(
                self.now,
                categories.CLUSTER_WORKER_FAILED,
                worker=link.index,
                node=link.node,
                reason=reason,
                returncode=failure.returncode,
            )
        if self._failure is None:
            self._failure = ClusterError(
                "cluster run failed", failures=tuple(self._failures)
            )
        self._settle()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    async def _teardown(self) -> None:
        self._closing = True
        tasks: list[asyncio.Task[None]] = []
        if self._watcher is not None:
            tasks.append(self._watcher)
            self._watcher = None
        for link in self._links:
            process = link.process
            if (
                link.writer is not None
                and process is not None
                and process.poll() is None
            ):
                try:
                    await write_frame(link.writer, {"kind": "shutdown"})
                except (OSError, ConnectionError, ClusterError):
                    pass
        deadline = self._loop.time() + _SHUTDOWN_GRACE
        while any(
            link.process is not None and link.process.poll() is None
            for link in self._links
        ):
            if self._loop.time() > deadline:
                break
            await asyncio.sleep(0.02)
        for link in self._links:
            if link.process is not None:
                if link.process.poll() is None:
                    link.process.kill()
                link.process.wait()
            for task in (link.writer_task, link.reader_task):
                if task is not None:
                    tasks.append(task)
            link.writer_task = None
            link.reader_task = None
            if link.writer is not None:
                link.writer.close()
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except (OSError, ConnectionError):
                pass
            self._server = None

    def close(self) -> None:
        """Graceful cluster shutdown, then close the loop (idempotent)."""
        if self._closed:
            return
        if not self._loop.is_closed():
            self._loop.run_until_complete(self._teardown())
        super().close()
        if self._tempdir is not None:
            shutil.rmtree(self._tempdir, ignore_errors=True)
            self._tempdir = None

    def __repr__(self) -> str:
        return (
            f"ClusterTransport(t={self.now:.3f}, workers={len(self._links)}, "
            f"channel={self.channel!r}, in_flight={self._in_flight}, "
            f"failures={len(self._failures)})"
        )
