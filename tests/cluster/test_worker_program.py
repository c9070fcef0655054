"""The worker program: a self-contained standard-library program, spawned
isolated, that holds its own against the coordinator's socket.

The coordinator spawns ``cluster/worker.py`` by file path, so that
starting a worker never imports the repro package: payloads stay opaque
JSON and the framing is inlined.  An import of anything else would make
every worker start-up pay for it, or fail outright where the package is
not importable.  Because it needs only the standard library it runs
under ``-I -S``.  It has no asyncio either, so it does itself what an
asyncio transport would: buffer a write the socket does not take at
once, notice a vanished coordinator, and switch off Nagle's algorithm
over TCP.
"""

from __future__ import annotations

import ast
import socket
import subprocess
import sys
import time

import pytest

from repro.cluster.frames import HEADER, FrameReader
from repro.cluster.transport import _WORKER_PATH, ClusterTransport
from repro.cluster.worker import _dial

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
    assert "selectors" in modules  # the walk found the imports
    assert "asyncio" not in modules
    assert "repro" not in modules
    assert modules <= sys.stdlib_module_names, modules - sys.stdlib_module_names


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
        [
            sys.executable,
            "-I",
            "-S",
            str(_WORKER_PATH),
            "--connect",
            spec,
            "--index",
            "0",
            "--heartbeat",
            "30",
        ],
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
            assert process.args[:4] == [sys.executable, "-I", "-S", str(_WORKER_PATH)]
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


class TestAgainstALiveCoordinator:
    def test_frame_larger_than_the_socket_buffer_round_trips(self) -> None:
        # About 2 MiB of distinct 8-digit numbers: both workers must write
        # it back in several ``send`` calls, and a lost, repeated or
        # reordered chunk would show.
        payload = "".join(f"{i:08d}" for i in range(1 << 18))
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            assert len(payload) > probe.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
        finally:
            probe.close()
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
        assert received == [payload]


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
            assert frames[0]["kind"] == "hello"
            return connection


class TestAgainstATestCoordinator:
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
        ("cut", "where"),
        [(HEADER.pack(64)[:2], "header"), (HEADER.pack(64) + b'{"kind"', "body")],
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
