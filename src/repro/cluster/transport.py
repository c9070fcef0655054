"""Multi-process cluster backend of the transport seam.

:class:`ClusterTransport` is the third :class:`~repro.core.transport.Transport`
backend: a coordinator process that spawns **one worker OS process per
registered node** (vertices, and controllers on the DDB model) and routes
every message through that node's worker over a real socket -- Unix-domain
by default, TCP on request -- as length-prefixed ``struct`` frames
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
  message, and frames it to the **destination's** worker in a ``msg``
  envelope: the ``loose`` flag, the due time and the sender's channel id
  (a small integer the coordinator assigns each sender), then the
  payload's JSON;
* the worker keeps each inbound channel's frames in a deque, with a
  timer on its heap for the head only, and at the head's virtual due time
  on its own clock echoes the frame's bytes back as a ``deliver`` frame,
  without parsing the payload;
* the coordinator maps the channel id back to the sender and the
  connection to the destination, decodes the payload (the delivered
  message is rebuilt from wire bytes, not the original object) and runs
  the handler atomically on its single-threaded loop.

Socket I/O runs on plain loop callbacks, as the live backend's deliveries
do.  Each worker connection is one :class:`asyncio.Protocol`
(:class:`_Connection`) that parses frames as bytes arrive and handles
each one in place; ``send`` writes its frame straight to the destination
worker's socket, whose transport buffer is the only queue.  A worker is
a standard-library program on one ``select.poll`` loop that imports only
modules written in C, spawned in isolated mode (``python -I -S``) by a
one-line bootstrap that imports it from its own directory, so that its
bytecode comes from ``__pycache__``: its start-up, which every run pays
once per worker, costs as little as it can.

Per-channel FIFO (axiom P4) holds end to end by construction: every frame
for one worker is written to its one socket in send order and arrives in
write order, the worker arms a timer for each channel's head only, and
deliver frames return on one ordered stream.  The ``fifo=False`` ablation
marks frames ``loose``; workers then time each message independently and
reordering becomes possible, exactly as on the other two backends.

Robustness
----------
Workers connect back with deterministic retry/backoff and announce
themselves with a ``hello`` frame; the coordinator enforces a
``connect_timeout`` on bring-up.  Live workers heartbeat every
``heartbeat_interval`` seconds; a dead process, a broken connection, a
malformed frame, or a stale heartbeat surfaces as a typed
:class:`~repro.errors.ClusterError` carrying
:class:`~repro.errors.WorkerFailure` records -- a partial-run report,
never a hang.  ``close()`` shuts down gracefully: a ``shutdown`` frame
per worker, a wait that ends when the last worker's connection closes
(or after a bounded grace), then SIGKILL for stragglers.
"""

from __future__ import annotations

import asyncio
import functools
import os
import shutil
import subprocess
import sys
import tempfile
from collections.abc import Hashable
from pathlib import Path
from typing import Any, cast

from repro.cluster.frames import (
    DELIVER,
    HEARTBEAT,
    HELLO,
    KIND_NAMES,
    MSG,
    SHUTDOWN,
    START,
    FrameReader,
    decode_value,
    encode_frame,
    encode_value,
)
from repro.errors import ClusterError, SimulationError, WorkerFailure
from repro.live.transport import AsyncioTransport, LiveNodeContext, require_finite_positive
from repro.sim import categories
from repro.sim.network import DelayModel

#: the worker program; it imports only the standard library, so worker
#: start-up does not import the repro package.
_WORKER_PATH = Path(__file__).with_name("worker.py")
#: imports the worker from its own directory, so that its bytecode comes
#: from ``__pycache__``: running the file by path would compile it at
#: every start.
_BOOTSTRAP = (
    f"import sys;sys.path.append({str(_WORKER_PATH.parent)!r});"
    "import worker;sys.exit(worker.main())"
)
#: wall seconds granted for graceful worker exit before SIGKILL.
_SHUTDOWN_GRACE = 2.0
#: bytes of captured worker stderr echoed into a WorkerFailure.
_STDERR_TAIL = 2000


def _worker_command(spec: str, index: int, heartbeat: float) -> list[str]:
    """The command that starts worker ``index``, dialling ``spec``."""
    return [
        sys.executable,
        # Isolated (no PYTHON* variables, no user site, no script or
        # working directory on the path) and without ``site``: the worker
        # needs only the standard library, and skips the start-up cost of
        # site-packages' ``.pth`` hooks.
        "-I",
        "-S",
        "-c",
        _BOOTSTRAP,
        "--connect",
        spec,
        "--index",
        str(index),
        "--heartbeat",
        str(heartbeat),
    ]


class _WorkerLink:
    """Coordinator-side state for one worker process."""

    __slots__ = (
        "closed",
        "failed",
        "index",
        "last_seen",
        "node",
        "pid",
        "process",
        "socket",
        "stderr_path",
    )

    def __init__(self, index: int, node: Hashable) -> None:
        self.index = index
        self.node = node
        self.process: subprocess.Popen[bytes] | None = None
        #: the worker's connection, set once its ``hello`` arrives.
        self.socket: asyncio.Transport | None = None
        #: set once that connection has closed.
        self.closed = False
        self.last_seen = 0.0
        self.failed = False
        self.pid: int | None = None
        self.stderr_path: str | None = None


class _Connection(asyncio.Protocol):
    """One worker connection: frames are handled as their bytes arrive.

    The first frame must be a valid ``hello``; it binds the connection to
    its worker's :class:`_WorkerLink`, and any other first frame closes
    the connection.  After that a ``deliver`` frame runs its handler under
    the transport's guard, a ``heartbeat`` stamps the link, and anything
    else -- another kind, a frame that does not parse, an unknown channel
    id, a payload that does not decode, the connection closing -- loses
    the worker.
    """

    #: set by ``connection_made``, before any bytes arrive.
    _socket: asyncio.Transport

    def __init__(self, cluster: ClusterTransport) -> None:
        self._cluster = cluster
        self._frames = FrameReader()
        self._link: _WorkerLink | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._socket = cast(asyncio.Transport, transport)

    def data_received(self, data: bytes) -> None:
        cluster = self._cluster
        link = self._link
        try:
            frames = self._frames.feed(data)
        except ClusterError as error:
            if link is None:
                self._socket.close()
            else:
                cluster._worker_lost(link, str(error))
            return
        senders = cluster._senders
        for frame in frames:
            kind = frame[0]
            if link is None:
                link = self._bind(frame)
                if link is None:
                    self._socket.close()
                    return
            elif kind == DELIVER:
                _, _, due, channel, payload = frame
                if channel >= len(senders):
                    cluster._worker_lost(
                        link, f"malformed deliver frame: unknown channel id {channel}"
                    )
                    return
                try:
                    message = decode_value(payload)
                except (ClusterError, AttributeError, KeyError, TypeError, ValueError) as error:
                    # A payload the codec cannot take apart or refuses.
                    cluster._worker_lost(
                        link,
                        f"malformed deliver frame: {type(error).__name__}: {error}",
                    )
                    return
                cluster._guarded(
                    cluster._deliver, (due, senders[channel], link.node, message)
                )
            elif kind == HEARTBEAT:
                link.last_seen = cluster._loop.time()
            else:
                cluster._worker_lost(link, f"sent an unexpected {KIND_NAMES[kind]} frame")
                return

    def connection_lost(self, exc: Exception | None) -> None:
        link = self._link
        if link is None:
            return
        link.closed = True
        cluster = self._cluster
        if cluster._closing:
            drained = cluster._drained
            if (
                drained is not None
                and not drained.done()
                and all(other.closed or other.socket is None for other in cluster._links)
            ):
                drained.set_result(None)
            return
        try:
            self._frames.eof()
        except ClusterError as error:
            reason = str(error)
        else:
            reason = (
                "connection closed unexpectedly"
                if exc is None
                else f"connection error: {exc}"
            )
        cluster._worker_lost(link, reason)

    def _bind(self, frame: tuple[Any, ...]) -> _WorkerLink | None:
        """Bind this connection to the worker its ``hello`` names, if valid."""
        cluster = self._cluster
        if frame[0] != HELLO:
            return None
        _, index, pid = frame
        if index >= len(cluster._links):
            return None
        link = cluster._links[index]
        if link.socket is not None:
            return None
        link.socket = self._socket
        link.pid = pid or None
        link.last_seen = cluster._loop.time()
        self._link = link
        bound = cluster._bound
        if (
            bound is not None
            and not bound.done()
            and all(other.socket is not None for other in cluster._links)
        ):
            bound.set_result(None)
        if cluster.tracer.wants(categories.CLUSTER_WORKER_READY):
            cluster.tracer.record(
                cluster.now,
                categories.CLUSTER_WORKER_READY,
                worker=link.index,
                node=link.node,
                pid=link.pid,
            )
        return link


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
        require_finite_positive("heartbeat_interval", heartbeat_interval)
        require_finite_positive("connect_timeout", connect_timeout)
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
        #: each sender's channel id, and the senders by id: a ``msg`` frame
        #: names its sender by id, and the worker keys its channels by it.
        self._channel_ids: dict[Hashable, int] = {}
        self._senders: list[Hashable] = []
        self._failures: list[WorkerFailure] = []
        self._tempdir: str | None = None
        self._server: asyncio.AbstractServer | None = None
        self._watcher: asyncio.Task[None] | None = None
        #: resolved by the ``hello`` that binds the last worker, so
        #: bring-up ends then rather than at its next poll.
        self._bound: asyncio.Future[None] | None = None
        #: resolved, while closing, once every bound worker's connection
        #: has closed, so teardown ends then rather than at its next poll.
        self._drained: asyncio.Future[None] | None = None
        self._brought_up = False
        self._closing = False

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

    def _dispatch(self, delivery: tuple[float, Hashable, Hashable, Any]) -> None:
        """Write one ``msg`` frame to the destination worker's socket.

        Every frame for a worker goes through its one socket, in send
        order, so each channel's frames reach the worker in send order.
        The destination is the worker itself, so the frame names only the
        sender, by its channel id.
        """
        due, sender, destination, message = delivery
        channel = self._channel_ids.get(sender)
        if channel is None:
            channel = self._channel_ids[sender] = len(self._senders)
            self._senders.append(sender)
        socket = self._links[self._node_index[destination]].socket
        assert socket is not None, "dispatch before bring-up"
        socket.write(encode_frame((MSG, not self.fifo, due, channel, encode_value(message))))

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
        # The start frame anchors each worker's virtual-time origin just
        # after the coordinator's, and must precede every message frame on
        # the wire: the sends made before this first run are held back
        # until each worker has its start frame.  It is written now, not
        # on the loop's next spin: a run that is over before its first
        # event never spins the loop.
        held, self._pending_sends = self._pending_sends, []
        super()._start()
        start = encode_frame((START, self.time_scale))
        for link in self._links:
            assert link.socket is not None, "start before bring-up"
            link.socket.write(start)
        for delivery in held:
            self._dispatch(delivery)

    async def _bring_up(self) -> None:
        self._tempdir = tempfile.mkdtemp(prefix="repro-cluster-")
        bound = self._bound = self._loop.create_future()
        connection = functools.partial(_Connection, self)
        if self.channel == "unix":
            socket_path = os.path.join(self._tempdir, "coordinator.sock")
            self._server = await self._loop.create_unix_server(
                connection, path=socket_path
            )
            spec = f"unix:{socket_path}"
        else:
            self._server = await self._loop.create_server(connection, "127.0.0.1", 0)
            port = self._server.sockets[0].getsockname()[1]
            spec = f"tcp:127.0.0.1:{port}"
        env = {**os.environ, **self.worker_env}
        for link in self._links:
            link.stderr_path = os.path.join(
                self._tempdir, f"worker-{link.index}.log"
            )
            with open(link.stderr_path, "wb") as log:
                link.process = subprocess.Popen(
                    _worker_command(spec, link.index, self.heartbeat_interval),
                    stdout=log,
                    stderr=log,
                    env=env,
                )
        deadline = self._loop.time() + self.connect_timeout
        while not all(link.socket is not None for link in self._links):
            for link in self._links:
                process = link.process
                if process is None or link.socket is not None:
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
                missing = [link for link in self._links if link.socket is None]
                raise ClusterError(
                    f"{len(missing)} worker(s) did not connect within "
                    f"connect_timeout={self.connect_timeout}s",
                    failures=tuple(
                        self._failure_record(link, "never connected")
                        for link in missing
                    ),
                )
            # Worker exits and the deadline are polled every 20 ms; the
            # last ``hello`` ends the wait at once.
            await asyncio.wait((bound,), timeout=0.02)

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
        if link.socket is not None:
            # Nothing more is read from a lost worker.
            link.socket.close()
        self._settle()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    async def _teardown(self) -> None:
        self._closing = True
        if self._watcher is not None:
            self._watcher.cancel()
            await asyncio.gather(self._watcher, return_exceptions=True)
            self._watcher = None
        drained = self._drained = self._loop.create_future()
        shutdown = encode_frame((SHUTDOWN,))
        for link in self._links:
            process = link.process
            if process is None or process.poll() is not None:
                continue
            if link.socket is None:
                # Never connected (a failed bring-up): no shutdown frame
                # can reach it, so waiting out the grace would gain nothing.
                process.kill()
            else:
                link.socket.write(shutdown)
        deadline = self._loop.time() + _SHUTDOWN_GRACE
        while not drained.done() and any(
            link.process is not None and link.process.poll() is None
            for link in self._links
        ):
            if self._loop.time() > deadline:
                break
            # Worker exits and the deadline are polled every 20 ms; the
            # last worker to close its connection ends the wait at once.
            await asyncio.wait((drained,), timeout=0.02)
        for link in self._links:
            process = link.process
            if process is not None:
                # A worker closes its connection just before it exits.
                try:
                    process.wait(timeout=max(deadline - self._loop.time(), 0.0))
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
            if link.socket is not None:
                link.socket.close()
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
