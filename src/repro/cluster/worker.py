"""Cluster worker: one OS process owning one node's inbound channels.

The coordinator (:mod:`repro.cluster.transport`) spawns one of these per
registered node and routes every message for that node through it, so
each delivery genuinely crosses two process boundaries as length-prefixed
JSON frames.  The worker's job is the delivery half of axiom P4:

* one deque per inbound channel, with a loop timer armed for its head
  only: when the head's timer fires it arms the next head's, then echoes
  the head back as a ``deliver`` frame, so delivery order on a channel
  equals frame order regardless of the injected delays (``loose``
  frames -- the ``fifo=False`` ablation -- get a timer each instead and
  may overtake);
* a frame's timer fires at its virtual due time, ``origin + due *
  time_scale`` on the worker's own clock, anchored by the coordinator's
  ``start`` frame;
* a heartbeat frame every ``--heartbeat`` seconds, so the coordinator
  can tell a stalled worker from a quiet one;
* connects back to the coordinator with deterministic exponential
  backoff (:func:`backoff_delays`; no jitter -- cluster runs must stay
  reproducible per seed, and the schedule has nothing to desynchronize).

The worker is one :class:`asyncio.Protocol` on plain loop callbacks:
frames are parsed as their bytes arrive, and no task runs per channel or
per message.

This file is a **self-contained stdlib program**: the coordinator spawns
it by file path (``python .../worker.py``), so worker start-up never
imports the repro package -- payloads stay opaque JSON, and the tiny
frame helpers are inlined here instead of imported from
:mod:`repro.cluster.frames`.

Test hooks (environment variables, all off by default):

``REPRO_CLUSTER_TEST_STARTUP_DELAY``
    sleep this many seconds before connecting (a slow-starting worker).
``REPRO_CLUSTER_TEST_CONNECT_FAILS``
    fail the first N connect attempts (exercises the backoff path).
``REPRO_CLUSTER_TEST_EXIT_AFTER``
    die abruptly (``os._exit``) after N deliveries (a mid-run crash).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import struct
import sys
import time
from collections import deque
from typing import Any, cast

_HEADER = struct.Struct(">I")
_MAX_FRAME_BYTES = 8 * 1024 * 1024
_ENCODER = json.JSONEncoder(separators=(",", ":"))
#: exit status of an injected mid-run crash (REPRO_CLUSTER_TEST_EXIT_AFTER).
CRASH_EXIT_CODE = 17

#: connect retry schedule knobs (seconds).
BACKOFF_BASE = 0.05
BACKOFF_CAP = 1.0
CONNECT_ATTEMPTS = 8


def backoff_delays(
    attempts: int = CONNECT_ATTEMPTS,
    base: float = BACKOFF_BASE,
    cap: float = BACKOFF_CAP,
) -> list[float]:
    """Deterministic exponential backoff: ``base * 2**k`` capped at ``cap``.

    One delay per retry (the first attempt is immediate).  Deliberately
    jitter-free: the schedule is private to one (worker, coordinator)
    pair, so there is no thundering herd to spread out, and determinism
    is a feature everywhere in this codebase.
    """
    return [min(base * (2.0**k), cap) for k in range(attempts)]


def _env_float(name: str) -> float:
    raw = os.environ.get(name, "")
    return float(raw) if raw else 0.0


def _env_int(name: str) -> int:
    raw = os.environ.get(name, "")
    return int(raw) if raw else 0


def _encode_frame(frame: dict[str, Any]) -> bytes:
    body = _ENCODER.encode(frame).encode("utf-8")
    return _HEADER.pack(len(body)) + body


async def _connect(
    loop: asyncio.AbstractEventLoop, spec: str, protocol: asyncio.Protocol
) -> None:
    """Dial the coordinator, retrying with deterministic backoff."""
    forced_failures = _env_int("REPRO_CLUSTER_TEST_CONNECT_FAILS")
    delays = backoff_delays()
    last_error: Exception = ConnectionError("no connect attempt made")
    for attempt in range(len(delays) + 1):
        try:
            if attempt < forced_failures:
                raise ConnectionError("injected connect failure (test hook)")
            if spec.startswith("unix:"):
                await loop.create_unix_connection(lambda: protocol, spec[len("unix:") :])
                return
            if spec.startswith("tcp:"):
                host, _, port = spec[len("tcp:") :].rpartition(":")
                await loop.create_connection(lambda: protocol, host, int(port))
                return
            raise ValueError(f"unknown connect spec {spec!r}")
        except (OSError, ConnectionError) as error:
            last_error = error
            if attempt < len(delays):
                await asyncio.sleep(delays[attempt])
    raise last_error


class Worker(asyncio.Protocol):
    """Channel owner for one node; see the module docstring.

    Create it inside the running loop; :meth:`run` dials the coordinator
    and returns the exit status once the connection ends.
    """

    #: set by ``connection_made``, which runs before ``_connect`` returns.
    _socket: asyncio.Transport
    _beat: asyncio.TimerHandle

    def __init__(self, index: int, heartbeat: float) -> None:
        self.index = index
        self.heartbeat = heartbeat
        self.origin: float | None = None
        self.time_scale = 1.0
        self.delivered = 0
        self.exit_after = _env_int("REPRO_CLUSTER_TEST_EXIT_AFTER")
        self._loop = asyncio.get_running_loop()
        #: resolved with the exit status, or the error that ends the run.
        self._exit: asyncio.Future[int] = self._loop.create_future()
        self._buffer = bytearray()
        #: frames in flight per FIFO channel; the head's timer is armed.
        self._channels: dict[str, deque[dict[str, Any]]] = {}
        self._heartbeats = 0

    async def run(self, spec: str) -> int:
        await _connect(self._loop, spec, self)
        try:
            return await self._exit
        finally:
            self._beat.cancel()
            self._socket.close()

    def _finish(self, outcome: int | Exception) -> None:
        if self._exit.done():
            return
        if isinstance(outcome, Exception):
            self._exit.set_exception(outcome)
        else:
            self._exit.set_result(outcome)

    # ------------------------------------------------------------------
    # The connection

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._socket = cast(asyncio.Transport, transport)
        self._write({"kind": "hello", "index": self.index, "pid": os.getpid()})
        self._beat = self._loop.call_later(self.heartbeat, self._heartbeat)

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
        offset = 0
        end = len(buffer)
        try:
            while end - offset >= _HEADER.size and not self._exit.done():
                (length,) = _HEADER.unpack_from(buffer, offset)
                if length > _MAX_FRAME_BYTES:
                    raise ConnectionError(f"frame announces {length} bytes; stream corrupt")
                start = offset + _HEADER.size
                if end - start < length:
                    break
                offset = start + length
                frame = json.loads(buffer[start:offset].decode("utf-8"))
                if not isinstance(frame, dict):
                    raise ConnectionError("frame body is not a JSON object")
                self._handle(frame)
        except Exception as error:  # noqa: BLE001 - ends the run with this error
            self._finish(error)
            return
        del buffer[:offset]

    def connection_lost(self, exc: Exception | None) -> None:
        if len(self._buffer) >= _HEADER.size:
            self._finish(ConnectionError("coordinator died inside a frame body"))
        elif self._buffer:
            self._finish(ConnectionError("coordinator died inside a frame header"))
        # Coordinator went away without a shutdown frame: exit rather than
        # linger as an orphan.
        self._finish(1)

    def _handle(self, frame: dict[str, Any]) -> None:
        kind = frame.get("kind")
        if kind == "msg":
            self._enqueue(frame)
        elif kind == "start":
            self.origin = self._loop.time()
            self.time_scale = float(frame["time_scale"])
        elif kind == "shutdown":
            self._finish(0)
        else:
            raise ConnectionError(f"unknown frame kind {kind!r}")

    def _write(self, frame: dict[str, Any]) -> None:
        self._socket.write(_encode_frame(frame))

    def _heartbeat(self) -> None:
        self._heartbeats += 1
        self._write({"kind": "heartbeat", "index": self.index, "seq": self._heartbeats})
        self._beat = self._loop.call_later(self.heartbeat, self._heartbeat)

    # ------------------------------------------------------------------
    # Delivery

    def _due(self, frame: dict[str, Any]) -> float:
        """Loop time of ``frame``'s virtual due time (now, before ``start``)."""
        if self.origin is None:
            return self._loop.time()
        return self.origin + float(frame["due"]) * self.time_scale

    def _enqueue(self, frame: dict[str, Any]) -> None:
        if frame.get("loose"):
            self._loop.call_at(self._due(frame), self._deliver, frame)
            return
        key = frame["channel"]
        channel = self._channels.get(key)
        if channel is None:
            channel = self._channels[key] = deque()
        channel.append(frame)
        if len(channel) == 1:
            self._loop.call_at(self._due(frame), self._deliver_head, channel)

    def _deliver_head(self, channel: deque[dict[str, Any]]) -> None:
        """Deliver a channel's head, arming the next head's timer first."""
        frame = channel.popleft()
        if channel:
            self._loop.call_at(self._due(channel[0]), self._deliver_head, channel)
        self._deliver(frame)

    def _deliver(self, frame: dict[str, Any]) -> None:
        frame["kind"] = "deliver"
        self._write(frame)
        self.delivered += 1
        if self.exit_after and self.delivered >= self.exit_after:
            # Simulated hard crash: no shutdown frame, no flushing -- the
            # coordinator must notice via EOF/exit status, not courtesy.
            os._exit(CRASH_EXIT_CODE)


async def _amain(args: argparse.Namespace) -> int:
    worker = Worker(index=args.index, heartbeat=args.heartbeat)
    return await worker.run(args.connect)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repro cluster worker process")
    parser.add_argument("--connect", required=True, help="unix:<path> or tcp:<host>:<port>")
    parser.add_argument("--index", type=int, required=True, help="worker index")
    parser.add_argument(
        "--heartbeat", type=float, default=0.5, help="heartbeat interval (seconds)"
    )
    args = parser.parse_args(argv)
    startup_delay = _env_float("REPRO_CLUSTER_TEST_STARTUP_DELAY")
    if startup_delay > 0:
        time.sleep(startup_delay)
    try:
        return asyncio.run(_amain(args))
    except (OSError, ConnectionError, ValueError) as error:
        print(f"worker {args.index}: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
