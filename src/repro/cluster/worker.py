"""Cluster worker: one OS process owning one node's inbound channels.

The coordinator (:mod:`repro.cluster.transport`) spawns one of these per
registered node and routes every message for that node through it, so
each delivery genuinely crosses two process boundaries as length-prefixed
``struct`` frames (:mod:`repro.cluster.frames`).  The worker's job is the
delivery half of axiom P4:

* one deque per inbound channel, with a timer for its head only: when
  the head's timer fires it arms the next head's, then echoes the head
  back as a ``deliver`` frame, so delivery order on a channel equals
  frame order regardless of the injected delays (``loose`` frames -- the
  ``fifo=False`` ablation -- get a timer each instead and may overtake);
* a frame's timer fires at its virtual due time, ``origin + due *
  time_scale`` on the worker's own monotonic clock, anchored by the
  coordinator's ``start`` frame;
* a heartbeat frame every ``--heartbeat`` seconds, so the coordinator
  can tell a stalled worker from a quiet one;
* connects back to the coordinator with deterministic exponential
  backoff (:func:`backoff_delays`; no jitter -- cluster runs must stay
  reproducible per seed, and the schedule has nothing to desynchronize).

The worker reads only a frame's fixed envelope (kind, ``loose``, due
time, channel id).  It keeps each ``msg`` frame's bytes as they came and
writes them back with the kind byte rewritten to ``deliver``, so the
payload is never parsed here.  The loop is one ``select.poll`` over the
coordinator socket: frames are parsed as their bytes arrive, one heap of
due times holds the timers, and a write the socket does not take at once
waits in a buffer until the socket is writable again.  No task or thread
runs per channel or per message.

This file is a **self-contained program** that imports only modules
written in C, plus the two thin wrappers ``struct`` and ``heapq``: the
coordinator starts it in isolated mode with a one-line bootstrap
(``python -I -S -c "...; import worker; ..."``) that imports it from its
own directory, so worker start-up never imports the repro package, runs
no ``site`` hooks, reads no ``PYTHON*`` variables, and loads this file's
bytecode from ``__pycache__`` instead of compiling it.  ``_socket``,
``select.poll``, ``posix`` and ``_collections`` stand in for ``socket``,
``selectors``, ``os`` and ``collections``, each of which would import
Python modules.  Start-up time is the cost every cluster run pays once
per worker.

Test hooks (environment variables, all off by default):

``REPRO_CLUSTER_TEST_STARTUP_DELAY``
    sleep this many seconds before connecting (a slow-starting worker).
``REPRO_CLUSTER_TEST_CONNECT_FAILS``
    fail the first N connect attempts (exercises the backoff path).
``REPRO_CLUSTER_TEST_EXIT_AFTER``
    die abruptly (``posix._exit``) after N deliveries (a mid-run crash).
"""

import _socket
import heapq
import posix
import select
import struct
import sys
import time

# The type checker reads the Python modules; at run time they would add
# to every worker's start-up, as ``from __future__ import annotations``
# would, so an annotation naming them is quoted.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections import deque
    from collections.abc import Callable
    from typing import Any
else:
    from _collections import deque

#: these mirror repro.cluster.frames, which this program may not import.
_HEADER = struct.Struct(">I")
_MAX_FRAME_BYTES = 8 * 1024 * 1024
_HELLO, _HEARTBEAT, _START, _SHUTDOWN, _MSG, _DELIVER = range(1, 7)
_ENVELOPE = struct.Struct(">B?dI")
_HELLO_BODY = struct.Struct(">BII")
_START_BODY = struct.Struct(">Bd")
_HEARTBEAT_FRAME = _HEADER.pack(1) + bytes((_HEARTBEAT,))
#: bytes asked of the socket per read.
_READ_SIZE = 256 * 1024
#: longest single wait, in seconds: ``poll`` takes at most about 24 days
#: of milliseconds, and a long heartbeat must not overflow it.
_MAX_WAIT = 3600.0
#: exit status of an injected mid-run crash (REPRO_CLUSTER_TEST_EXIT_AFTER).
CRASH_EXIT_CODE = 17

#: connect retry schedule knobs (seconds).
BACKOFF_BASE = 0.05
BACKOFF_CAP = 1.0
CONNECT_ATTEMPTS = 8

_USAGE = (
    "usage: worker.py --connect unix:<path>|tcp:<host>:<port> --index N "
    "[--heartbeat SECONDS]"
)


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


def _env_float(name: bytes) -> float:
    raw = posix.environ.get(name, b"")
    return float(raw) if raw else 0.0


def _env_int(name: bytes) -> int:
    raw = posix.environ.get(name, b"")
    return int(raw) if raw else 0


def _dial(spec: str) -> _socket.socket:
    """One blocking connect to ``unix:<path>`` or ``tcp:<host>:<port>``."""
    if spec.startswith("unix:"):
        sock = _socket.socket(_socket.AF_UNIX, _socket.SOCK_STREAM)
        try:
            sock.connect(spec[len("unix:") :])
        except OSError:
            sock.close()
            raise
        return sock
    if spec.startswith("tcp:"):
        host, _, port = spec[len("tcp:") :].rpartition(":")
        # An address literal connects without a resolver call, which costs
        # a fresh process milliseconds; a name is resolved as IPv4.
        family = _socket.AF_INET6 if ":" in host else _socket.AF_INET
        sock = _socket.socket(family, _socket.SOCK_STREAM)
        try:
            sock.connect((host, int(port)))
        except (OSError, ValueError):
            sock.close()
            raise
        # Without it, Nagle's algorithm and the peer's delayed ACK can hold
        # a small frame back for tens of milliseconds.
        sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
        return sock
    raise ValueError(f"unknown connect spec {spec!r}")


def _connect(spec: str) -> _socket.socket:
    """Dial the coordinator, retrying with deterministic backoff."""
    forced_failures = _env_int(b"REPRO_CLUSTER_TEST_CONNECT_FAILS")
    delays = backoff_delays()
    last_error: OSError = ConnectionError("no connect attempt made")
    for attempt in range(len(delays) + 1):
        try:
            if attempt < forced_failures:
                raise ConnectionError("injected connect failure (test hook)")
            return _dial(spec)
        except OSError as error:
            last_error = error
            if attempt < len(delays):
                time.sleep(delays[attempt])
    raise last_error


class Worker:
    """Channel owner for one node over a connected socket; see the module
    docstring.  :meth:`run` serves the connection and returns the exit
    status, or raises the connection or frame error that ends it."""

    def __init__(self, index: int, heartbeat: float, sock: _socket.socket) -> None:
        self.index = index
        self.heartbeat = heartbeat
        self.origin: float | None = None
        self.time_scale = 1.0
        self.delivered = 0
        self.exit_after = _env_int(b"REPRO_CLUSTER_TEST_EXIT_AFTER")
        self._socket = sock
        self._poll = select.poll()
        #: the events ``_poll`` watches the socket for.
        self._watching = 0
        #: received bytes not yet parsed into frames.
        self._inbox = bytearray()
        #: encoded bytes the socket has not taken yet.
        self._outbox = bytearray()
        #: ``(when, sequence, action, argument)``; the sequence keeps timers
        #: due at the same instant in the order they were armed.
        self._timers: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self._sequence = 0
        #: ``(due, deliver frame)`` in flight per FIFO channel id; the
        #: head's timer is armed.
        self._channels: dict[int, deque[tuple[float, bytearray]]] = {}
        #: set once the connection is over: 0 after ``shutdown``, 1 on EOF.
        self._exit: int | None = None

    def run(self) -> int:
        sock = self._socket
        poll = self._poll.poll
        timers = self._timers
        sock.setblocking(False)
        self._watch(select.POLLIN)
        try:
            hello = _HELLO_BODY.pack(_HELLO, self.index, posix.getpid())
            self._write(_HEADER.pack(len(hello)) + hello)
            next_beat = time.monotonic() + self.heartbeat
            while (status := self._exit) is None:
                wake = timers[0][0] if timers and timers[0][0] < next_beat else next_beat
                wait = min(max(wake - time.monotonic(), 0.0), _MAX_WAIT)
                for _, events in poll(wait * 1000.0):
                    if events & select.POLLOUT:
                        self._flush()
                    if events & ~select.POLLOUT and self._exit is None:
                        # Readable, or hung up or in error: ``recv`` tells.
                        self._read()
                now = time.monotonic()
                while timers and timers[0][0] <= now and self._exit is None:
                    _, _, action, argument = heapq.heappop(timers)
                    action(argument)
                if now >= next_beat and self._exit is None:
                    self._write(_HEARTBEAT_FRAME)
                    next_beat = now + self.heartbeat
            if status == 0 and self._outbox:
                sock.setblocking(True)
                try:
                    sock.sendall(self._outbox)
                except OSError:
                    pass  # the coordinator left first; nothing is owed to it
            return status
        finally:
            sock.close()

    # ------------------------------------------------------------------
    # The connection

    def _watch(self, events: int) -> None:
        if events != self._watching:
            if self._watching:
                self._poll.modify(self._socket, events)
            else:
                self._poll.register(self._socket, events)
            self._watching = events

    def _read(self) -> None:
        try:
            data = self._socket.recv(_READ_SIZE)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if data:
            self._receive(data)
        else:
            self._connection_lost()

    def _receive(self, data: bytes) -> None:
        buffer = self._inbox
        buffer += data
        offset = 0
        end = len(buffer)
        while end - offset >= _HEADER.size and self._exit is None:
            (length,) = _HEADER.unpack_from(buffer, offset)
            if length > _MAX_FRAME_BYTES:
                raise ConnectionError(f"frame announces {length} bytes; stream corrupt")
            start = offset + _HEADER.size
            stop = start + length
            if end < stop:
                break
            kind = buffer[start] if length else None
            if kind == _MSG and length >= _ENVELOPE.size:
                _, loose, due, channel = _ENVELOPE.unpack_from(buffer, start)
                frame = buffer[offset:stop]
                frame[_HEADER.size] = _DELIVER
                self._enqueue(loose, due, channel, frame)
            elif kind == _START and length == _START_BODY.size:
                self.origin = time.monotonic()
                self.time_scale = _START_BODY.unpack_from(buffer, start)[1]
            elif kind == _SHUTDOWN and length == 1:
                self._exit = 0
            else:
                raise ConnectionError(f"malformed frame: kind {kind}, {length} bytes")
            offset = stop
        del buffer[:offset]

    def _connection_lost(self) -> None:
        if len(self._inbox) >= _HEADER.size:
            raise ConnectionError("coordinator died inside a frame body")
        if self._inbox:
            raise ConnectionError("coordinator died inside a frame header")
        # Coordinator went away without a shutdown frame: exit rather than
        # linger as an orphan.
        self._exit = 1

    def _write(self, frame: bytes | bytearray) -> None:
        idle = not self._outbox
        self._outbox += frame
        if idle:
            self._flush()

    def _flush(self) -> None:
        """Send what the socket takes now; watch for writability while
        bytes remain."""
        outbox = self._outbox
        try:
            sent = self._socket.send(outbox)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:
            self._connection_lost()
            return
        del outbox[:sent]
        self._watch(select.POLLIN | select.POLLOUT if outbox else select.POLLIN)

    # ------------------------------------------------------------------
    # Delivery

    def _call_at(self, when: float, action: "Callable[[Any], None]", argument: "Any") -> None:
        self._sequence += 1
        heapq.heappush(self._timers, (when, self._sequence, action, argument))

    def _due(self, due: float) -> float:
        """Clock time of virtual time ``due`` (now, before ``start``)."""
        if self.origin is None:
            return time.monotonic()
        return self.origin + due * self.time_scale

    def _enqueue(self, loose: bool, due: float, channel_id: int, frame: bytearray) -> None:
        if loose:
            self._call_at(self._due(due), self._deliver, frame)
            return
        channel = self._channels.get(channel_id)
        if channel is None:
            channel = self._channels[channel_id] = deque()
        channel.append((due, frame))
        if len(channel) == 1:
            self._call_at(self._due(due), self._deliver_head, channel)

    def _deliver_head(self, channel: deque[tuple[float, bytearray]]) -> None:
        """Deliver a channel's head, arming the next head's timer first."""
        _, frame = channel.popleft()
        if channel:
            self._call_at(self._due(channel[0][0]), self._deliver_head, channel)
        self._deliver(frame)

    def _deliver(self, frame: bytearray) -> None:
        self._write(frame)
        self.delivered += 1
        if self.exit_after and self.delivered >= self.exit_after:
            # Simulated hard crash: no shutdown frame, no flushing -- the
            # coordinator must notice via EOF/exit status, not courtesy.
            posix._exit(CRASH_EXIT_CODE)


def _parse_args(argv: list[str]) -> tuple[str, int, float] | None:
    """The coordinator's three flags, or ``None`` when they do not parse."""
    flags = dict(zip(argv[::2], argv[1::2]))
    if (
        len(argv) % 2
        or len(flags) != len(argv) // 2
        or not {"--connect", "--index"} <= flags.keys()
        or not flags.keys() <= {"--connect", "--index", "--heartbeat"}
    ):
        return None
    try:
        index = int(flags["--index"])
        heartbeat = float(flags.get("--heartbeat", "0.5"))
    except ValueError:
        return None
    if not 0.0 < heartbeat < float("inf"):
        return None
    return flags["--connect"], index, heartbeat


def main(argv: list[str] | None = None) -> int:
    parsed = _parse_args(sys.argv[1:] if argv is None else argv)
    if parsed is None:
        print(_USAGE, file=sys.stderr)
        return 2
    spec, index, heartbeat = parsed
    startup_delay = _env_float(b"REPRO_CLUSTER_TEST_STARTUP_DELAY")
    if startup_delay > 0:
        time.sleep(startup_delay)
    try:
        return Worker(index, heartbeat, _connect(spec)).run()
    except (OSError, ValueError) as error:
        print(f"worker {index}: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
