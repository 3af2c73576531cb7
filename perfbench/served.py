"""The system under test as its own process, and the closed-loop client.

:class:`Server` runs ``repro serve --format bin`` on an ephemeral port
with a fresh artifact store.  :class:`Connection` is one keep-alive
HTTP/1.1 connection speaking raw sockets, so the client spends as little
of the shared CPU as it can.  :func:`closed_loop` sends the next request
only after the previous reply has been read in full, the way the CLI,
editor plugins and CI jobs call the service.
"""

from __future__ import annotations

import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Callable, List, NamedTuple, Optional, Tuple


class Server:
    """``python -m repro serve`` over *store*, started on construction."""

    def __init__(self, root: str, store: str, log_path: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--format", "bin",
             "--port", "0", "--cache", store],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            self.port = self._await_port(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _await_port(self, timeout: float) -> int:
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise RuntimeError(f"server did not announce a port within {timeout:.0f}s")
        line = self.process.stdout.readline().decode().strip()
        if not line.startswith("serving on http://"):
            raise RuntimeError(f"server failed to start: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """Peak resident memory (VmHWM) of the server process, in MiB."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Interrupt the server and wait until it has exited."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


class Connection:
    """One keep-alive connection; :meth:`exchange` is one request/reply."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def close(self) -> None:
        self.sock.close()

    @staticmethod
    def wire(path: str, body: bytes) -> bytes:
        head = (
            f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        return head.encode("latin-1") + body

    def exchange(self, data: bytes) -> Tuple[int, bytes]:
        self.sock.sendall(data)
        buffer = self._buffer
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            buffer += self._recv()
        head = buffer[:end].decode("latin-1")
        status = int(head[9:12])
        length = 0
        for line in head.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.lower() == "content-length":
                length = int(value)
        start = end + 4
        while len(buffer) < start + length:
            buffer += self._recv()
        self._buffer = buffer[start + length:]
        return status, buffer[start:start + length]

    def _recv(self) -> bytes:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk


class Window(NamedTuple):
    """Whole passes of a closed loop: records ``first`` to ``end``, served
    in ``seconds``, and what the ``calibrate`` call after them returned."""

    first: int
    end: int
    seconds: float
    gauge: Any


class LoopResult:
    """Per-request records of one closed loop, ``(index, status, body,
    latency ms)``, and the windows they fall into."""

    def __init__(self):
        self.records: List[Tuple[int, int, bytes, float]] = []
        self.windows: List[Window] = []
        self.seconds = 0.0


def closed_loop(
    connection: Connection,
    wires: Callable[[int, int], bytes],
    per_pass: int,
    seconds: float,
    first_pass: int = 0,
    window: float = 0.0,
    calibrate: Optional[Callable[[], Any]] = None,
) -> LoopResult:
    """Cycle through *per_pass* requests in whole passes until *seconds*
    of serving have gone by.  ``wires(pass, index)`` gives the bytes to
    send, passes counting from *first_pass*.  Passes are grouped into
    windows of at least *window* seconds; after each window the server is
    idle while ``calibrate()`` runs, and that time is not serving time.
    Every window holds the same requests, so their rates compare."""
    result = LoopResult()
    started = time.perf_counter_ns()
    idle = 0
    window_first, window_began = 0, 0
    sent = 0
    while True:
        number, index = divmod(sent, per_pass)
        number += first_pass
        data = wires(number, index)
        begin = time.perf_counter_ns()
        status, body = connection.exchange(data)
        end = time.perf_counter_ns()
        result.records.append((index, status, body, (end - begin) / 1e6))
        sent += 1
        if sent % per_pass:
            continue
        clock = end - started - idle
        if (clock - window_began) / 1e9 < window:
            continue
        pause = time.perf_counter_ns()
        gauge = calibrate() if calibrate else None
        idle += time.perf_counter_ns() - pause
        result.windows.append(Window(window_first, sent, (clock - window_began) / 1e9, gauge))
        window_first, window_began = sent, clock
        if clock / 1e9 >= seconds:
            break
    result.seconds = window_began / 1e9
    return result


def store_bytes(store: str, suffix: str = ".rtb") -> int:
    """Total size of the artifacts under *store*."""
    total = 0
    for directory, _, names in os.walk(store):
        total += sum(
            os.path.getsize(os.path.join(directory, name))
            for name in names if name.endswith(suffix)
        )
    return total
