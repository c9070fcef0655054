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

from repro.cluster.frames import HEADER, MAX_FRAME_BYTES, encode_frame
from repro.cluster.transport import ClusterTransport, _Connection
from repro.errors import ClusterError

TIME_SCALE = 0.002
TIMEOUT = 15.0

DELIVER = {"kind": "deliver", "src": "a", "dst": "b", "due": 1.0, "payload": 1}


class Node:
    def __init__(self, pid: str) -> None:
        self.pid = pid

    def attach_context(self, ctx) -> None:
        pass

    def on_message(self, sender, message) -> None:
        pass


class StubSocket:
    """Stands in for the connection's transport: records ``close``."""

    def __init__(self) -> None:
        self.closed = False

    def close(self) -> None:
        self.closed = True


def _pair() -> ClusterTransport:
    transport = ClusterTransport(seed=0, time_scale=TIME_SCALE, max_wall_seconds=TIMEOUT)
    transport.register(Node("a"))
    transport.register(Node("b"))
    return transport


class TestFirstFrame:
    @pytest.mark.parametrize(
        "data",
        [
            encode_frame(DELIVER),
            encode_frame({"kind": "hello"}),
            encode_frame({"kind": "hello", "index": "first"}),
            encode_frame({"kind": "hello", "index": 2}),
            encode_frame({"kind": "hello", "index": 0, "pid": "x"}),
            HEADER.pack(MAX_FRAME_BYTES + 1),
            HEADER.pack(2) + b"{]",
        ],
        ids=[
            "not-hello",
            "no-index",
            "bad-index",
            "unknown-index",
            "bad-pid",
            "oversize",
            "not-json",
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
        ("frame", "names"),
        [
            ({key: value for key, value in DELIVER.items() if key != "due"}, "'due'"),
            ({**DELIVER, "due": "soon"}, "'soon'"),
            (
                {
                    **DELIVER,
                    "payload": {"__repro__": "dataclass", "type": "evil:Payload", "fields": {}},
                },
                "evil:Payload",
            ),
        ],
        ids=["missing-due", "non-numeric-due", "undecodable-payload"],
    )
    def test_malformed_deliver_fails_the_run_naming_the_worker(
        self, frame: dict, names: str
    ) -> None:
        transport = _pair()
        try:
            transport.run(max_events=0)  # bring-up
            socket = transport._links[1].socket
            assert socket is not None
            started = time.perf_counter()
            socket.get_protocol().data_received(encode_frame(frame))
            with pytest.raises(ClusterError) as excinfo:
                transport.run_to_quiescence()
            # Reported by the frame handler itself, well inside the
            # watchdog's stale-heartbeat window.
            assert time.perf_counter() - started < transport._stale_after
            (failure,) = excinfo.value.failures
            assert failure.worker == 1
            assert failure.reason.startswith("malformed deliver frame: ")
            assert names in failure.reason
            assert socket.is_closing()
        finally:
            transport.close()
