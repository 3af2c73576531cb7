"""``repro serve`` stops cleanly on SIGTERM, pool workers included.

SIGTERM is how service managers and CI jobs stop a server.  It must take
the same path as SIGINT: close the listener, then ``service.close()``,
which stops the worker pool, so no forked worker outlives the server.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.service import Client, fork_available

pytestmark = pytest.mark.skipif(
    not fork_available() or not Path("/proc/self/task").is_dir(),
    reason="needs fork and a /proc that lists child processes",
)


def _children(pid: int) -> "set[int]":
    """Direct children of *pid*, from every thread's /proc children list."""
    found = set()
    for task in Path(f"/proc/{pid}/task").iterdir():
        found.update(int(child) for child in (task / "children").read_text().split())
    return found


def _running(pid: int) -> bool:
    """True while *pid* exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_sigterm_stops_the_pool_and_exits_zero(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--cache", str(tmp_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    workers: "set[int]" = set()
    try:
        line = server.stdout.readline()
        assert line.startswith("serving on http://"), line
        port = int(line.strip().rsplit(":", 1)[1])
        client = Client(port, timeout=30)
        for _ in range(2):  # one request to each worker
            response = client.post("/parse", {"corpus": "expr", "input": "id"})
            assert response.status == 200
        workers = _children(server.pid)
        assert len(workers) == 2
        assert all(_running(pid) for pid in workers)
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=60) == 0
        assert [pid for pid in workers if _running(pid)] == []
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
        server.stderr.close()
        for pid in workers:  # never leak an orphan, even on failure
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
