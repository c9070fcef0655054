"""The worker program: a self-contained standard-library program, spawned
isolated, that holds its own against the coordinator's socket.

The coordinator starts ``cluster/worker.py`` with a one-line bootstrap
that imports it from its own directory, so that starting a worker never
imports the repro package: payloads stay opaque bytes and the envelope
is inlined.  An import of anything else would make every worker start-up
pay for it, or fail outright where the package is not importable.
Because it needs only the standard library it runs under ``-I -S``.  It
has no asyncio either, so it does itself what an asyncio transport
would: buffer a write the socket does not take at once, notice a
vanished coordinator, and switch off Nagle's algorithm over TCP.
"""

from __future__ import annotations

import ast
import socket
import subprocess
import sys
import time

import pytest

from repro.cluster.frames import (
    DELIVER,
    ENVELOPE,
    HEADER,
    HELLO,
    MSG,
    SHUTDOWN,
    START,
    FrameReader,
    encode_frame,
)
from repro.cluster.transport import _WORKER_PATH, ClusterTransport, _worker_command
from repro.cluster.worker import _dial, main

TIME_SCALE = 0.002
TIMEOUT = 15.0


def _imported_top_level_modules() -> set[str]:
    tree = ast.parse(_WORKER_PATH.read_text(encoding="utf-8"))
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module, "relative import in the worker"
            modules.add(node.module.partition(".")[0])
    return modules


def test_worker_imports_only_the_standard_library() -> None:
    modules = _imported_top_level_modules()
    assert "_socket" in modules  # the walk found the imports
    assert "asyncio" not in modules
    assert "repro" not in modules
    assert modules <= sys.stdlib_module_names, modules - sys.stdlib_module_names


#: modules whose import would cost every worker start-up milliseconds.
SLOW_IMPORTS = {
    "json",
    "re",
    "enum",
    "socket",
    "selectors",
    "asyncio",
    "typing",
    "argparse",
    "repro",
}


def test_worker_start_up_imports_none_of_the_slow_modules() -> None:
    # The coordinator's own command, with ``-X importtime`` added; the
    # connect spec fails at once, after every import has run.
    command = _worker_command("bogus:x", 0, 0.5)
    command[1:1] = ["-X", "importtime"]
    worker = subprocess.run(command, capture_output=True, text=True, timeout=TIMEOUT)
    assert worker.returncode == 3
    imported = {
        line.rpartition("|")[2].strip().partition(".")[0]
        for line in worker.stderr.splitlines()
        if line.startswith("import time:") and not line.endswith("imported package")
    }
    assert {"worker", "_socket"} <= imported  # the list was read
    assert not imported & SLOW_IMPORTS, imported & SLOW_IMPORTS


@pytest.mark.parametrize("heartbeat", ["inf", "-inf", "nan", "0", "-1", "soon"])
def test_bad_heartbeat_exits_2_with_the_usage_line(heartbeat: str, capsys) -> None:
    assert main(["--connect", "bogus:x", "--index", "0", "--heartbeat", heartbeat]) == 2
    assert capsys.readouterr().err.startswith("usage: worker.py")


class Node:
    def __init__(self, pid: str) -> None:
        self.pid = pid

    def attach_context(self, ctx) -> None:
        pass

    def on_message(self, sender, message) -> None:
        pass


def _spawn(spec: str) -> subprocess.Popen[str]:
    """The worker program, started as the coordinator starts it."""
    return subprocess.Popen(
        _worker_command(spec, 0, 30.0),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )


def _reap(worker: subprocess.Popen[str]) -> str:
    """Kill the worker if a failed step left it running; its stderr."""
    if worker.poll() is None:
        worker.kill()
    return worker.communicate()[1]


class TestIsolatedStart:
    def test_bring_up_spawns_the_worker_isolated(self) -> None:
        transport = ClusterTransport(seed=0, time_scale=TIME_SCALE, max_wall_seconds=TIMEOUT)
        try:
            transport.register(Node("a"))
            transport.run(max_events=0)
            (process,) = transport.worker_processes().values()
            assert process.args[:3] == [sys.executable, "-I", "-S"]
            assert process.args == _worker_command(
                process.args[process.args.index("--connect") + 1], 0, 0.5
            )
        finally:
            transport.close()
        assert process.returncode == 0

    def test_bad_connect_spec_exits_3_naming_it(self) -> None:
        worker = _spawn("bogus:x")
        try:
            worker.wait(timeout=TIMEOUT)
        finally:
            stderr = _reap(worker)
        assert worker.returncode == 3
        assert "bogus:x" in stderr


#: about 2 MiB of distinct 8-digit numbers: a worker must write it back in
#: several ``send`` calls, and a lost, repeated or reordered chunk would show.
LARGE = "".join(f"{i:08d}" for i in range(1 << 18))
#: two- to four-byte UTF-8 sequences and a lone surrogate.
NON_ASCII = "Grüße, Ωμέγα, 死锁, \U0001f512 \ud800"


def _echo_through_the_cluster(payload: str) -> list[str]:
    """What node ``a`` gets back after node ``b`` echoes ``payload``."""
    received: list[str] = []

    class Echo(Node):
        def attach_context(self, ctx) -> None:
            self.ctx = ctx

        def on_message(self, sender, message) -> None:
            if self.pid == "b":
                self.ctx.send(sender, message)
            else:
                received.append(message)

    transport = ClusterTransport(seed=0, time_scale=TIME_SCALE, max_wall_seconds=TIMEOUT)
    try:
        a, b = Echo("a"), Echo("b")
        transport.register(a)
        transport.register(b)
        a.ctx.send("b", payload)
        transport.run_to_quiescence()
    finally:
        transport.close()
    assert transport.worker_failures == ()
    return received


class TestAgainstALiveCoordinator:
    def test_frame_larger_than_the_socket_buffer_round_trips(self) -> None:
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            assert len(LARGE) > probe.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
        finally:
            probe.close()
        assert _echo_through_the_cluster(LARGE) == [LARGE]

    def test_non_ascii_payload_round_trips(self) -> None:
        assert _echo_through_the_cluster(NON_ASCII) == [NON_ASCII]


@pytest.fixture
def listener():
    """A test-owned coordinator socket on loopback TCP."""
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(TIMEOUT)
    try:
        yield server
    finally:
        server.close()


def _accept_hello(server: socket.socket) -> socket.socket:
    """Accept the worker's connection and read its ``hello``."""
    connection, _ = server.accept()
    connection.settimeout(TIMEOUT)
    reader = FrameReader()
    while True:
        data = connection.recv(4096)
        assert data, "worker closed before its hello"
        frames = reader.feed(data)
        if frames:
            assert frames[0][:2] == (HELLO, 0)
            return connection


def _read_frame(connection: socket.socket) -> bytes:
    """The next whole frame on ``connection``, header included."""
    data = b""
    while len(data) < HEADER.size or len(data) < HEADER.size + HEADER.unpack_from(data)[0]:
        chunk = connection.recv(1 << 20)
        assert chunk, "worker closed inside a frame"
        data += chunk
    return data


class TestAgainstATestCoordinator:
    def test_heartbeat_beyond_what_poll_takes_waits_and_delivers(self, listener) -> None:
        # 1e9 s is more milliseconds than ``poll`` accepts: the worker caps
        # each wait instead of dying in its first one.
        command = _worker_command(f"tcp:127.0.0.1:{listener.getsockname()[1]}", 0, 1e9)
        worker = subprocess.Popen(command, stderr=subprocess.PIPE, text=True)
        try:
            connection = _accept_hello(listener)
            connection.sendall(
                encode_frame((START, 0.001)) + encode_frame((MSG, False, 1.0, 0, "late"))
            )
            echoed = _read_frame(connection)
            connection.sendall(encode_frame((SHUTDOWN,)))
            worker.wait(timeout=TIMEOUT)
            connection.close()
        finally:
            stderr = _reap(worker)
        assert echoed == encode_frame((DELIVER, False, 1.0, 0, "late"))
        assert worker.returncode == 0, stderr

    def test_vanished_coordinator_ends_the_worker_with_status_1(self, listener) -> None:
        worker = _spawn(f"tcp:127.0.0.1:{listener.getsockname()[1]}")
        try:
            connection = _accept_hello(listener)
            connection.close()
            closed = time.perf_counter()
            worker.wait(timeout=TIMEOUT)
            exited = time.perf_counter()
        finally:
            _reap(worker)
        assert worker.returncode == 1
        # EOF wakes the loop: no heartbeat (30 s) or other timer is awaited.
        assert exited - closed < 5.0

    @pytest.mark.parametrize(
        "body",
        [
            json_text.encode("utf-8")
            for json_text in (f'"{LARGE}"', '"Grüße, Ωμέγα, 死锁, 🔒"')
        ],
        ids=["2MiB", "non-ascii"],
    )
    def test_worker_echoes_the_payload_byte_for_byte(self, listener, body: bytes) -> None:
        # Raw UTF-8, not the coordinator's escaped JSON: the worker must
        # not parse, re-encode or split what it holds.
        worker = _spawn(f"tcp:127.0.0.1:{listener.getsockname()[1]}")
        try:
            connection = _accept_hello(listener)
            envelope = ENVELOPE.pack(MSG, False, 2.5, 3)
            sent = HEADER.pack(len(envelope) + len(body)) + envelope + body
            connection.sendall(encode_frame((START, 0.001)) + sent)
            echoed = _read_frame(connection)
            connection.sendall(encode_frame((SHUTDOWN,)))
            worker.wait(timeout=TIMEOUT)
            connection.close()
        finally:
            _reap(worker)
        assert echoed[HEADER.size] == DELIVER
        assert echoed[: HEADER.size] + echoed[HEADER.size + 1 :] == (
            sent[: HEADER.size] + sent[HEADER.size + 1 :]
        )
        assert worker.returncode == 0

    @pytest.mark.parametrize(
        ("cut", "where"),
        [
            (HEADER.pack(64)[:2], "header"),
            (HEADER.pack(64) + ENVELOPE.pack(MSG, False, 1.0, 0), "body"),
        ],
        ids=["header", "body"],
    )
    def test_coordinator_cut_inside_a_frame_exits_3_naming_the_cut(
        self, listener, cut: bytes, where: str
    ) -> None:
        worker = _spawn(f"tcp:127.0.0.1:{listener.getsockname()[1]}")
        try:
            connection = _accept_hello(listener)
            connection.sendall(cut)
            connection.close()
            worker.wait(timeout=TIMEOUT)
        finally:
            stderr = _reap(worker)
        assert worker.returncode == 3
        assert f"coordinator died inside a frame {where}" in stderr

    def test_tcp_connection_disables_nagle(self, listener) -> None:
        # The option lives on the worker's end of the connection, which the
        # peer cannot read, so the worker's own dial is checked here.
        sock = _dial(f"tcp:127.0.0.1:{listener.getsockname()[1]}")
        try:
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            sock.close()
