"""The asyncio transport: sockets in front of :class:`GrammarService`.

Three entry points, one per consumer:

- :func:`serve_forever` — the blocking loop behind ``repro serve``.
- :class:`ServiceThread` — a real server on an ephemeral port inside a
  background thread, for the functional suite, the bench harness and
  the CI smoke job (start, hammer over TCP, close — no subprocess
  management, no port races).
- :class:`Client` — a tiny blocking ``http.client`` wrapper so tests
  and benches speak actual HTTP instead of poking handlers directly.

Connections are keep-alive HTTP/1.1; a malformed request gets one 400
and the connection is closed.  Client disconnects mid-stream are normal,
not errors.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
from http.client import HTTPConnection
from typing import Dict, Optional

from .app import GrammarService
from .protocol import ProtocolError, Response, canonical_json, read_request

__all__ = ["Client", "ClientResponse", "ServiceThread", "run_server", "serve_forever"]


async def handle_connection(
    service: GrammarService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            try:
                request = await read_request(reader)
            except ProtocolError as error:
                service.metrics.inc("service.protocol_errors")
                writer.write(
                    Response.json(
                        {"error": "bad_request", "detail": str(error)}, status=400
                    ).encode(keep_alive=False)
                )
                await writer.drain()
                break
            if request is None:
                break
            response = await service.handle(request)
            keep = request.keep_alive
            writer.write(response.encode(keep_alive=keep))
            await writer.drain()
            if not keep:
                break
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except Exception:
            pass


async def run_server(
    service: GrammarService, host: str = "127.0.0.1", port: int = 0
) -> "asyncio.AbstractServer":
    """Start the job queue and bind a listening server (port 0 = any)."""
    await service.start()
    return await asyncio.start_server(
        lambda reader, writer: handle_connection(service, reader, writer),
        host,
        port,
    )


def serve_forever(
    service: GrammarService,
    host: str = "127.0.0.1",
    port: int = 8080,
    announce=print,
) -> int:
    """Blocking serve loop (the ``repro serve`` verb); 0 on clean exit.

    SIGTERM stops it the way SIGINT does: the serving task is cancelled,
    so ``service.close()`` still stops the job queue and the worker pool.
    """

    async def main() -> None:
        server = await run_server(service, host, port)
        bound = server.sockets[0].getsockname()
        announce(f"serving on http://{bound[0]}:{bound[1]}")
        restore = _cancel_on_sigterm(asyncio.current_task())
        try:
            async with server:
                await server.serve_forever()
        finally:
            await service.close()
            restore()

    try:
        asyncio.run(main())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    return 0


def _cancel_on_sigterm(task: "asyncio.Task"):
    """Route SIGTERM to ``task.cancel()``; returns the undo callable.

    Processes forked from this one later (pool and fan-out workers)
    inherit the handler; there it restores the default action and
    re-raises, so ``terminate()`` still ends them.  A no-op off the main
    thread, where Python cannot install signal handlers.
    """
    if threading.current_thread() is not threading.main_thread():
        return lambda: None
    loop = asyncio.get_running_loop()
    owner = os.getpid()

    def on_sigterm(signum, frame) -> None:
        if os.getpid() != owner:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)
            return
        loop.call_soon_threadsafe(task.cancel)

    previous = signal.signal(signal.SIGTERM, on_sigterm)
    return lambda: signal.signal(signal.SIGTERM, previous)


class ServiceThread:
    """A live server on an ephemeral port, in a daemon thread.

    >>> with ServiceThread(cache_dir=str(tmp)) as st:
    ...     Client(st.port).post("/compile", {"corpus": "paper_example"})
    """

    def __init__(
        self,
        service: "Optional[GrammarService]" = None,
        host: str = "127.0.0.1",
        **service_kwargs,
    ):
        self.service = service if service is not None else GrammarService(**service_kwargs)
        self.host = host
        self.port: "Optional[int]" = None
        self._thread: "Optional[threading.Thread]" = None
        self._loop: "Optional[asyncio.AbstractEventLoop]" = None
        self._stop: "Optional[asyncio.Event]" = None
        self._ready = threading.Event()
        self._startup_error: "Optional[BaseException]" = None

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30) or self._startup_error is not None:
            raise RuntimeError(f"service failed to start: {self._startup_error}")
        return self

    def close(self) -> None:
        if self._loop is not None and self._thread is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(timeout=15)

    def join_jobs(self, timeout: float = 300.0) -> None:
        """Block until every queued job has finished."""
        assert self._loop is not None
        asyncio.run_coroutine_threadsafe(
            self.service.jobs.join(), self._loop
        ).result(timeout=timeout)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # surface startup failures to start()
            self._startup_error = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_event_loop()
        self._stop = asyncio.Event()
        server = await run_server(self.service, self.host, 0)
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        await self._stop.wait()
        server.close()
        await server.wait_closed()
        await self.service.close()


class ClientResponse:
    """Status + raw bytes + parsed JSON of one exchange."""

    __slots__ = ("status", "body", "headers")

    def __init__(self, status: int, body: bytes, headers: "Dict[str, str]"):
        self.status = status
        self.body = body
        self.headers = headers

    def json(self) -> object:
        return json.loads(self.body.decode("utf-8"))


class Client:
    """A blocking HTTP client for tests, benches and smoke checks.

    One connection per request: simple, and exactly how concurrent test
    clients should behave (no shared-socket serialization).
    """

    def __init__(self, port: int, host: str = "127.0.0.1", timeout: float = 120.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def request(
        self,
        method: str,
        path: str,
        payload: object = None,
        headers: "Optional[Dict[str, str]]" = None,
    ) -> ClientResponse:
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            body = canonical_json(payload) if payload is not None else None
            conn.request(method, path, body=body, headers=dict(headers or {}))
            raw = conn.getresponse()
            return ClientResponse(
                raw.status, raw.read(), {k.lower(): v for k, v in raw.getheaders()}
            )
        finally:
            conn.close()

    def get(self, path: str, headers: "Optional[Dict[str, str]]" = None) -> ClientResponse:
        return self.request("GET", path, None, headers)

    def post(
        self,
        path: str,
        payload: object,
        headers: "Optional[Dict[str, str]]" = None,
    ) -> ClientResponse:
        return self.request("POST", path, payload, headers)
