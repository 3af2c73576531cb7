"""The multi-core execution tier: a process pool behind the asyncio front-end.

A single serving process executes all pipeline work on threads, which the
GIL serializes onto one core.  :class:`WorkerPool` moves that work into
``N`` forked worker processes:

- **Shared table store.**  Each worker opens its own
  :class:`~repro.tables.TableCache` over the *same* sharded on-disk
  store the parent uses, so a table is built once for the whole pool.
  With the ``bin`` backend a worker loads the RPTB artifact
  (:mod:`repro.tables.binfmt`) as a verified copy in microseconds.
- **Deterministic routing.**  Every worker has its own inbox and the
  parent round-robins requests across them, so K requests land
  ``ceil(K/N)``/``floor(K/N)`` per worker regardless of timing — the
  multi-worker suite asserts *every* worker is counted, not just that
  the total adds up.
- **One executor.**  A worker runs each request through
  :func:`repro.service.app.execute`, the function the in-process tier
  calls, with its own :class:`~repro.service.app.GrammarHandles` memo,
  so both tiers validate and answer a request the same way.
- **Counter fold-back.**  Workers run each request under
  ``instrument.profile()`` and ship the counters home with the result;
  a dispatcher thread folds them into the parent's
  :class:`~repro.service.metrics.MetricsRegistry`, so ``GET /metrics``
  aggregates the whole pool exactly like the single-process tier.
- **Typed failure transport.**  :class:`~repro.service.protocol.HttpError`
  and :class:`~repro.core.budget.BudgetExceeded` are reconstructable
  from plain fields; the worker ships the fields and the parent re-raises
  the same exception type, so the service's error handlers produce
  bit-identical responses whether the work ran in-process or pooled.
  Anything else becomes :class:`WorkerCrash` carrying the worker-side
  ``type: message`` rendering the single-process 500 body would show.

The pool handles the *stateless* request kinds (sync compile, parse,
sessionless analyze, ``wait``-mode fuzz, and async compile jobs).
Session-affine analysis stays in-process — an
:class:`~repro.pipeline.AnalysisSession` is mutable server state and
must not be split across processes — and batch/fuzz jobs keep their own
:func:`~repro.core.parallel.parallel_map` fan-out.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional

from ..core import instrument
from ..core.budget import BudgetExceeded
from .protocol import HttpError

__all__ = ["WorkerCrash", "WorkerPool", "fork_available"]


class WorkerCrash(Exception):
    """An unexpected exception inside a pool worker (or a dead pool).

    ``rendered`` is the worker-side ``TypeName: message`` string; the
    service's 500 handler uses it verbatim so the response body matches
    what the in-process executor would have produced.
    """

    def __init__(self, rendered: str):
        self.rendered = rendered
        super().__init__(rendered)


def fork_available() -> bool:
    """True when the ``fork`` start method exists (POSIX)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _worker_main(
    worker_id: int,
    inbox,
    outbox,
    cache_dir: str,
    backend: str,
    hot_capacity: int,
) -> None:
    """The forked worker loop: pull, execute, ship (result, counters)."""
    from ..tables import TableCache
    from .app import GrammarHandles, execute

    cache = (
        TableCache(cache_dir, backend=backend, hot_capacity=hot_capacity)
        if cache_dir
        else None
    )
    handles = GrammarHandles(hot_capacity)
    while True:
        try:
            item = inbox.get()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if item is None:
            break
        request_id, kind, payload, headers = item
        prof = instrument.profile()
        collector = prof.__enter__()
        try:
            result = execute(kind, payload, headers, cache, handles)
            status, body = "ok", result
        except HttpError as error:
            status = "http_error"
            body = {"status": error.status, "code": error.code,
                    "detail": error.detail}
        except BudgetExceeded as error:
            status = "budget_exceeded"
            body = {
                "phase": error.phase,
                "resource": error.resource,
                "limit": error.limit,
                "elapsed": error.elapsed,
                "progress": error.progress,
            }
        except KeyboardInterrupt:
            break
        except Exception as error:  # ship it; never kill the worker
            status = "crash"
            body = {"rendered": f"{type(error).__name__}: {error}"}
        finally:
            prof.__exit__(None, None, None)
        try:
            outbox.put(
                (request_id, worker_id, status, body, dict(collector.counters))
            )
        except (BrokenPipeError, OSError, KeyboardInterrupt):
            break


class WorkerPool:
    """N forked workers over the shared artifact store.

    Args:
        workers: Worker process count (>= 1).
        cache_dir: The shared on-disk table store ("" disables caching
            in the workers; they still execute, just without artifacts).
        cache_backend: ``"json"`` or ``"bin"`` (``bin`` loads without a
            JSON parse).
        hot_capacity: Per-worker in-memory hot-table LRU size, and the
            size of each worker's grammar-handle memo.
        absorb: ``absorb(worker_id, counters)`` callback invoked on the
            dispatcher thread for every completed request (the service
            folds these into its metrics registry).
    """

    def __init__(
        self,
        workers: int,
        cache_dir: str = "",
        cache_backend: str = "json",
        hot_capacity: int = 8,
        absorb: "Optional[Callable[[int, Dict[str, int]], None]]" = None,
    ):
        if workers < 1:
            raise ValueError("WorkerPool needs at least one worker")
        self.workers = workers
        self.cache_dir = cache_dir
        self.cache_backend = cache_backend
        self.hot_capacity = hot_capacity
        self._absorb = absorb
        self._ctx = multiprocessing.get_context("fork")
        self._procs: "List[multiprocessing.Process]" = []
        self._inboxes: list = []
        self._outbox = None
        self._dispatcher: "Optional[threading.Thread]" = None
        self._lock = threading.Lock()
        self._pending: "Dict[int, Future]" = {}
        self._next_id = 0
        self._next_worker = 0
        self._started = False
        self._closed = False
        self.dispatched = 0
        self.completed = 0
        self.crashed = 0
        self.served: "List[int]" = [0] * workers

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "WorkerPool":
        if self._started:
            return self
        self._outbox = self._ctx.SimpleQueue()
        for worker_id in range(self.workers):
            inbox = self._ctx.SimpleQueue()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    inbox,
                    self._outbox,
                    self.cache_dir,
                    self.cache_backend,
                    self.hot_capacity,
                ),
                name=f"repro-pool-{worker_id}",
                daemon=True,
            )
            proc.start()
            self._inboxes.append(inbox)
            self._procs.append(proc)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-pool-dispatch", daemon=True
        )
        self._dispatcher.start()
        self._started = True
        return self

    def close(self, timeout: float = 10.0) -> None:
        if not self._started or self._closed:
            self._closed = True
            return
        self._closed = True
        for inbox in self._inboxes:
            try:
                inbox.put(None)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=timeout)
            if hasattr(proc, "close"):
                try:
                    proc.close()
                except ValueError:
                    pass
        # A None on the outbox stops the dispatcher; then fail whatever
        # was still pending so callers never block on a closed pool.
        try:
            self._outbox.put(None)
        except (BrokenPipeError, OSError):
            pass
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=timeout)
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(WorkerCrash("worker pool shut down"))
        for queue in self._inboxes + [self._outbox]:
            if hasattr(queue, "close"):
                try:
                    queue.close()
                except OSError:
                    pass

    @property
    def alive(self) -> bool:
        return (
            self._started
            and not self._closed
            and any(proc.is_alive() for proc in self._procs)
        )

    # -- submission ----------------------------------------------------

    def submit(
        self,
        kind: str,
        payload: dict,
        headers: "Optional[Dict[str, str]]" = None,
    ) -> "Future":
        """Queue a request on the next worker (round-robin); the Future
        resolves with the result dict or raises the reconstructed typed
        exception."""
        future: "Future" = Future()
        with self._lock:
            if self._closed or not self._started:
                future.set_exception(WorkerCrash("worker pool is not running"))
                return future
            request_id = self._next_id = self._next_id + 1
            worker_id = self._next_worker
            self._next_worker = (worker_id + 1) % self.workers
            self._pending[request_id] = future
            self.dispatched += 1
        try:
            self._inboxes[worker_id].put(
                (request_id, kind, dict(payload), dict(headers or {}))
            )
        except (BrokenPipeError, OSError):
            with self._lock:
                self._pending.pop(request_id, None)
            future.set_exception(WorkerCrash(f"worker {worker_id} is gone"))
        return future

    def stats(self) -> "Dict[str, int]":
        """The ``/metrics`` section: totals plus one counter per worker,
        so aggregation visibly accounts for every member of the pool."""
        with self._lock:
            stats = {
                "workers": self.workers,
                "dispatched": self.dispatched,
                "completed": self.completed,
                "crashed": self.crashed,
                "pending": len(self._pending),
            }
            for worker_id, count in enumerate(self.served):
                stats[f"worker_{worker_id}_served"] = count
        return stats

    # -- dispatcher ----------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            try:
                item = self._outbox.get()
            except (EOFError, OSError):
                break
            if item is None:
                break
            request_id, worker_id, status, body, counters = item
            with self._lock:
                future = self._pending.pop(request_id, None)
                self.completed += 1
                if status == "crash":
                    self.crashed += 1
                self.served[worker_id] += 1
            if self._absorb is not None and counters:
                try:
                    self._absorb(worker_id, counters)
                except Exception:  # metrics must never kill dispatch
                    pass
            if future is None or future.done():
                continue
            if status == "ok":
                future.set_result(body)
            elif status == "http_error":
                future.set_exception(
                    HttpError(body["status"], body["code"], body["detail"])
                )
            elif status == "budget_exceeded":
                future.set_exception(
                    BudgetExceeded(
                        body["phase"],
                        body["resource"],
                        body["limit"],
                        body["elapsed"],
                        body["progress"],
                    )
                )
            else:
                future.set_exception(WorkerCrash(body["rendered"]))
