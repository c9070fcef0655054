"""The coordinator's side of a worker connection: what it does with bad bytes.

Each worker connection is one protocol object that handles frames as
they arrive.  A connection that does not open with a valid ``hello`` is
closed and binds nothing; a bound worker that sends a frame the
coordinator cannot validate or decode is lost at once, by name, so the
run fails with the real cause instead of a later, vaguer one.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster.frames import (
    DELIVER,
    ENVELOPE,
    FIXED,
    HEADER,
    HEARTBEAT,
    HELLO,
    MAX_FRAME_BYTES,
    MSG,
    encode_frame,
)
from repro.cluster.transport import ClusterTransport, _Connection
from repro.core.assembly import build_runtime
from repro.core.registry import all_variants
from repro.errors import ClusterError
from repro.runner import run

TIME_SCALE = 0.002
TIMEOUT = 15.0

#: a ``deliver`` frame from worker 1 (node ``b``) on channel 0 (node ``a``).
GOOD_DELIVER = (DELIVER, False, 1.0, 0, 1)


class Node:
    def __init__(self, pid: str) -> None:
        self.pid = pid

    def attach_context(self, ctx) -> None:
        self.ctx = ctx

    def on_message(self, sender, message) -> None:
        pass


class StubSocket:
    """Stands in for the connection's transport: records ``close``."""

    def __init__(self) -> None:
        self.closed = False

    def close(self) -> None:
        self.closed = True


def _pair() -> ClusterTransport:
    """Nodes ``a`` and ``b``; ``a``'s message to ``b`` makes ``a`` channel 0."""
    transport = ClusterTransport(seed=0, time_scale=TIME_SCALE, max_wall_seconds=TIMEOUT)
    a = Node("a")
    transport.register(a)
    transport.register(Node("b"))
    a.ctx.send("b", 0)
    return transport


def _cut(frame: tuple, keep: int) -> bytes:
    """``frame`` with its body cut to ``keep`` bytes, the header saying so."""
    body = encode_frame(frame)[HEADER.size :][:keep]
    return HEADER.pack(len(body)) + body


class TestFirstFrame:
    @pytest.mark.parametrize(
        "data",
        [
            encode_frame(GOOD_DELIVER),
            encode_frame((HEARTBEAT,)),
            _cut((HELLO, 0, 1), 1),
            _cut((HELLO, 0, 1), FIXED[HELLO].size - 1),
            encode_frame((HELLO, 2, 1)),
            HEADER.pack(MAX_FRAME_BYTES + 1),
            HEADER.pack(1) + bytes((99,)),
        ],
        ids=[
            "not-hello",
            "heartbeat",
            "no-index",
            "hello-cut-short",
            "unknown-index",
            "oversize",
            "unknown-kind",
        ],
    )
    def test_invalid_first_frame_closes_the_connection(self, data: bytes) -> None:
        transport = _pair()
        try:
            connection = _Connection(transport)
            socket = StubSocket()
            connection.connection_made(socket)
            connection.data_received(data)  # must not raise
            assert socket.closed
            assert all(link.socket is None for link in transport._links)
            connection.connection_lost(None)
            assert transport.worker_failures == ()
        finally:
            transport.close()


class TestMalformedFrame:
    @pytest.mark.parametrize(
        ("data", "names"),
        [
            (HEADER.pack(1) + bytes((99,)), "malformed frame: unknown kind byte 99"),
            (
                _cut(GOOD_DELIVER, ENVELOPE.size - 1),
                "malformed deliver frame: 13 bytes, shorter than its 14-byte envelope",
            ),
            (
                encode_frame((DELIVER, False, 1.0, 7, 1)),
                "malformed deliver frame: unknown channel id 7",
            ),
            (
                encode_frame(
                    (
                        DELIVER,
                        False,
                        1.0,
                        0,
                        {"__repro__": "dataclass", "type": "evil:Payload", "fields": {}},
                    )
                ),
                "malformed deliver frame: ClusterError: frame references type 'evil:Payload'",
            ),
            (
                HEADER.pack(ENVELOPE.size + 2) + ENVELOPE.pack(DELIVER, False, 1.0, 0) + b"{]",
                "malformed deliver frame: payload is not JSON",
            ),
            (encode_frame((MSG, False, 1.0, 0, 1)), "sent an unexpected msg frame"),
        ],
        ids=[
            "unknown-kind-byte",
            "envelope-cut-short",
            "unknown-channel-id",
            "undecodable-payload",
            "payload-not-json",
            "wrong-direction",
        ],
    )
    def test_malformed_deliver_fails_the_run_naming_the_worker(
        self, data: bytes, names: str
    ) -> None:
        transport = _pair()
        try:
            transport.run(max_events=0)  # bring-up
            socket = transport._links[1].socket
            assert socket is not None
            started = time.perf_counter()
            socket.get_protocol().data_received(data)
            with pytest.raises(ClusterError) as excinfo:
                transport.run_to_quiescence()
            # Reported by the frame handler itself, well inside the
            # watchdog's stale-heartbeat window.
            assert time.perf_counter() - started < transport._stale_after
            (failure,) = excinfo.value.failures
            assert failure.worker == 1
            assert failure.reason.startswith(names)
            assert socket.is_closing()
        finally:
            transport.close()


class CaptureSocket(StubSocket):
    """Stands in for a worker's socket: keeps every frame written to it."""

    def __init__(self) -> None:
        super().__init__()
        self.written: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.written.append(bytes(data))


#: scenarios beyond deadlock and clean that send more message types.
MORE_SCENARIOS = {"ddb": ("ddb-hot",)}


def _sent_messages(name: str) -> dict[type, tuple]:
    """One ``(sender, destination, message)`` per message type ``name``
    sends in its scenarios on the simulator."""
    seen: dict[type, tuple] = {}
    for scenario in ("deadlock", "clean", *MORE_SCENARIOS.get(name, ())):
        transport = build_runtime(seed=0).transport
        transport.tracer.observe_messages(
            on_sent=lambda now, sender, destination, message: seen.setdefault(
                type(message), (sender, destination, message)
            )
        )
        run(name, scenario, transport=transport)
    return seen


@pytest.mark.parametrize("name", [variant.name for variant in all_variants()])
def test_every_message_type_survives_the_msg_deliver_pair(name: str) -> None:
    """The coordinator's own encode (``_dispatch``) and decode (a worker
    connection), with the worker's echo in between: every message type a
    registered variant sends comes back equal, of its own type, from its
    sender, to its destination."""
    seen = _sent_messages(name)
    assert seen
    cluster = ClusterTransport(seed=0, time_scale=TIME_SCALE, max_wall_seconds=TIMEOUT)
    try:
        pids = {pid for sender, destination, _ in seen.values() for pid in (sender, destination)}
        for pid in pids:
            cluster.register(Node(pid))
        connections = []
        for link in cluster._links:
            connection = _Connection(cluster)
            connection.connection_made(CaptureSocket())
            connection.data_received(encode_frame((HELLO, link.index, 0)))
            connections.append(connection)
        delivered: list[tuple] = []
        cluster._deliver = delivered.append
        for due, (sender, destination, message) in enumerate(seen.values()):
            index = cluster._node_index[destination]
            cluster._dispatch((float(due), sender, destination, message))
            echo = bytearray(cluster._links[index].socket.written.pop())
            assert echo[HEADER.size] == MSG
            echo[HEADER.size] = DELIVER  # all the worker changes
            connections[index].data_received(bytes(echo))
        assert cluster.worker_failures == ()
        assert delivered == [
            (float(due), sender, destination, message)
            for due, (sender, destination, message) in enumerate(seen.values())
        ]
        for (_, _, _, again), message_type in zip(delivered, seen):
            assert type(again) is message_type
    finally:
        cluster.close()
