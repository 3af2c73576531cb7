"""The grammar-analysis service: six endpoints over the pipeline.

====================  ======  ==============================================
endpoint              method  what it does
====================  ======  ==============================================
``/compile``          POST    build a parse table (sync; ``"async": true``
                              or a ``"batch"`` list submits a job instead)
``/analyze``          POST    LALR(1) look-ahead report, or — with a
                              ``"session"`` id — incremental edits through a
                              live :class:`~repro.pipeline.AnalysisSession`
``/parse``            POST    run the LR engine over ``"input"`` tokens
``/fuzz``             POST    submit a differential fuzz campaign job
``/jobs/<id>``        GET     poll a submitted job
``/metrics``          GET     instrument counters (text; ``?format=json``)
====================  ======  ==============================================

Three design rules keep the serving layer honest:

- **Handlers are shells over pure functions.**  :func:`compile_result`,
  :func:`analyze_result`, :func:`parse_result`, :func:`fuzz_result` and
  :func:`batch_result` map plain inputs to plain dicts; the HTTP layer
  only parses payloads and serialises the dicts canonically.  The corpus
  functional suite calls the same functions directly and asserts the
  service's bytes are identical — serving must never change an answer.
- **The shared artifact store is the cache.**  One sharded, hot-LRU'd
  :class:`~repro.tables.cache.TableCache` instance backs every request
  (and, via its on-disk layer, every batch-job worker process).
- **Every request is budgeted.**  ``X-Repro-*`` headers become a
  per-request :class:`~repro.core.budget.Budget`; exhaustion surfaces
  as the typed 503 of :mod:`repro.service.qos`, and a blown build never
  stores a partial table.

Pipeline work runs on a thread-pool executor so the event loop stays
responsive; per-grammar **session affinity** is a named
:class:`AnalysisSession` guarded by its own lock, so repeated edits to
one grammar ride the incremental splice path while other grammars build
in parallel.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

from ..core import instrument
from ..core.budget import Budget, BudgetExceeded
from ..grammar import Grammar, load_grammar
from ..grammar.delta import add_production, remove_production, replace_rhs
from ..grammar.errors import GrammarError
from ..grammar.fingerprint import grammar_fingerprint
from ..grammars import corpus
from ..parser import ConflictedTableError, ParseError, Parser
from ..pipeline import AnalysisSession
from ..tables import (
    TableCache,
    build_clr_table,
    build_lalr_table,
    build_lr0_table,
    build_slr_table,
)
from .jobs import Job, JobQueue
from .metrics import MetricsRegistry
from .pool import WorkerCrash, WorkerPool, fork_available
from .protocol import HttpError, Request, Response
from .qos import budget_exceeded_response, budget_from_headers

__all__ = [
    "GrammarService",
    "analyze_result",
    "batch_result",
    "compile_result",
    "fuzz_result",
    "parse_result",
]

BUILDERS = {
    "lr0": build_lr0_table,
    "slr1": build_slr_table,
    "lalr1": build_lalr_table,
    "clr1": build_clr_table,
}


# ---------------------------------------------------------------------------
# Pure result functions — the served contract, callable without a server.
# ---------------------------------------------------------------------------


def _build_table(
    grammar: Grammar,
    method: str,
    cache: "Optional[TableCache]",
    budget: "Optional[Budget]",
):
    builder = BUILDERS[method]
    if budget is not None:
        builder = functools.partial(builder, budget=budget)
    augmented = grammar.augmented()
    if cache is not None:
        return augmented, cache.load_or_build(augmented, method, builder)
    return augmented, builder(augmented)


def compile_result(
    grammar: Grammar,
    method: str = "lalr1",
    cache: "Optional[TableCache]" = None,
    budget: "Optional[Budget]" = None,
) -> dict:
    """The ``POST /compile`` body: table shape and conflict summary."""
    augmented, table = _build_table(grammar, method, cache, budget)
    summary = table.conflict_summary()
    return {
        "grammar": grammar.name,
        "method": method,
        "fingerprint": grammar_fingerprint(augmented),
        "states": table.n_states,
        "deterministic": table.is_deterministic,
        "conflicts": {
            "shift_reduce": summary["shift_reduce"],
            "reduce_reduce": summary["reduce_reduce"],
            "resolved": summary["resolved"],
        },
    }


def analyze_result(grammar: Grammar, budget: "Optional[Budget]" = None) -> dict:
    """The ``POST /analyze`` body (sessionless): the look-ahead report."""
    from ..core.lalr import LalrAnalysis

    analysis = LalrAnalysis(grammar.augmented(), budget=budget)
    return {
        "grammar": grammar.name,
        "lr0_states": len(analysis.automaton),
        "not_lr_k": analysis.not_lr_k,
        "lookaheads": analysis.describe(),
    }


def parse_result(
    grammar: Grammar,
    tokens: "List[str]",
    method: str = "lalr1",
    tree: bool = False,
    cache: "Optional[TableCache]" = None,
    budget: "Optional[Budget]" = None,
    engine: str = "lr",
) -> dict:
    """The ``POST /parse`` body: validity (plus the tree on request)."""
    _, table = _build_table(grammar, method, cache, budget)
    if engine == "glr":
        from ..parser import GlrParser

        glr = GlrParser(table)
        try:
            forest = glr.parse_forest(tokens, budget=budget)
        except ParseError as error:
            return {"grammar": grammar.name, "valid": False, "error": str(error)}
        result = {
            "grammar": grammar.name,
            "valid": True,
            "trees": forest.tree_count(limit=1000),
        }
        if tree and result["trees"]:
            result["tree"] = forest.tree().format()
        return result
    try:
        parser = Parser(table)
    except ConflictedTableError as error:
        raise HttpError(422, "conflicted_table", str(error))
    result = {"grammar": grammar.name, "valid": True}
    try:
        node = parser.parse(tokens, budget=budget)
    except ParseError as error:
        return {"grammar": grammar.name, "valid": False, "error": str(error)}
    if tree:
        result["tree"] = node.format()
    return result


def fuzz_result(payload: dict) -> dict:
    """One differential fuzz campaign, as a job result (deterministic:
    the same seed/count/buckets/oracles reproduce it bit for bit)."""
    from ..fuzz import CampaignConfig, DEFAULT_BUCKETS, run_campaign
    from ..fuzz.oracles import oracle_names

    oracles = payload.get("oracles")
    if oracles:
        unknown = [n for n in oracles if n not in oracle_names()]
        if unknown:
            raise HttpError(
                400, "unknown_oracle",
                f"unknown oracle(s): {', '.join(unknown)}",
            )
    buckets = list(DEFAULT_BUCKETS)
    wanted = payload.get("buckets")
    if wanted:
        by_label = {bucket.label: bucket for bucket in DEFAULT_BUCKETS}
        unknown = [b for b in wanted if b not in by_label]
        if unknown:
            raise HttpError(
                400, "unknown_bucket",
                f"unknown bucket(s): {', '.join(unknown)}",
            )
        buckets = [by_label[b] for b in wanted]
    config = CampaignConfig(
        seed=int(payload.get("seed", 0)),
        count=int(payload.get("count", 100)),
        buckets=buckets,
        oracles=list(oracles) if oracles else None,
        time_budget=float(payload.get("time_budget", 0.0)),
        clr_state_bound=int(payload.get("clr_bound", 60)),
    )
    report = run_campaign(config, workers=int(payload.get("workers", 1)))
    return {
        "seed": config.seed,
        "count": config.count,
        "grammars_run": report.grammars_run,
        "buckets": dict(sorted(report.per_bucket.items())),
        "failures": [failure.describe() for failure in report.failures],
        "duplicate_failures": report.duplicate_failures,
        "generation_errors": report.generation_errors,
        "stopped_early": report.stopped_early,
        "clean": report.clean,
    }


def _grammar_from_spec(spec) -> Grammar:
    """A grammar from a payload spec: ``{"corpus": name}``,
    ``{"grammar": text, "name": ...}``, or a ``"corpus:<name>"`` string."""
    if isinstance(spec, str):
        if spec.startswith("corpus:"):
            spec = {"corpus": spec.split(":", 1)[1]}
        else:
            spec = {"grammar": spec}
    if not isinstance(spec, dict):
        raise HttpError(400, "bad_grammar_spec", f"cannot interpret {spec!r}")
    if "corpus" in spec:
        name = spec["corpus"]
        try:
            return corpus.load(name)
        except KeyError:
            raise HttpError(
                422, "unknown_corpus",
                f"no corpus grammar {name!r} (known: {', '.join(corpus.names())})",
            )
    if "grammar" in spec:
        try:
            return load_grammar(
                str(spec["grammar"]), name=str(spec.get("name", "grammar"))
            )
        except GrammarError as error:
            raise HttpError(422, "grammar_error", str(error))
    raise HttpError(400, "missing_grammar", "payload needs 'grammar' or 'corpus'")


def _batch_compile_worker(task: tuple) -> dict:
    """One batch-job grammar, as a plain picklable row (runs in a forked
    worker when the job asks for ``workers > 1``)."""
    spec, method, cache_dir, backend = task
    cache = TableCache(cache_dir, backend=backend) if cache_dir else None
    try:
        grammar = _grammar_from_spec(spec)
        row = compile_result(grammar, method, cache)
    except HttpError as error:
        return {"status": "error", "detail": error.detail}
    except Exception as error:  # a bad grammar must not kill the batch
        return {"status": "error", "detail": f"{type(error).__name__}: {error}"}
    row["status"] = "ok" if row["deterministic"] else "conflicted"
    return row


def batch_result(
    payload: dict, cache_dir: str = "", backend: str = "json"
) -> dict:
    """``repro batch`` semantics as a job: compile every grammar spec,
    fanned across processes, sharing the on-disk artifact store."""
    from ..core.parallel import parallel_map

    specs = payload.get("batch")
    if not isinstance(specs, list) or not specs:
        raise HttpError(400, "bad_batch", "'batch' must be a non-empty list")
    method = _method_of(payload)
    workers = int(payload.get("workers", 1))
    tasks = [(spec, method, cache_dir, backend) for spec in specs]
    rows = parallel_map(_batch_compile_worker, tasks, workers=workers)
    errors = sum(1 for row in rows if row["status"] == "error")
    conflicted = sum(1 for row in rows if row["status"] == "conflicted")
    return {
        "rows": rows,
        "total": len(rows),
        "clean": len(rows) - errors - conflicted,
        "conflicted": conflicted,
        "errors": errors,
        "ok": not errors and not conflicted,
    }


def _method_of(payload: dict) -> str:
    method = payload.get("method", "lalr1")
    if method not in BUILDERS:
        raise HttpError(
            400, "bad_method",
            f"unknown method {method!r} (known: {', '.join(sorted(BUILDERS))})",
        )
    return method


def _engine_of(payload: dict) -> str:
    engine = payload.get("engine", "lr")
    if engine not in ("lr", "glr"):
        raise HttpError(
            400, "bad_engine", f"unknown engine {engine!r} (known: glr, lr)"
        )
    return engine


def _tokens_of(payload: dict) -> "List[str]":
    tokens = payload.get("input")
    if isinstance(tokens, str):
        return tokens.split()
    if isinstance(tokens, list):
        return [str(token) for token in tokens]
    raise HttpError(400, "missing_input", "payload needs 'input' (string or list)")


# ---------------------------------------------------------------------------
# The service object
# ---------------------------------------------------------------------------


class GrammarService:
    """Shared state and request handling for one serving process.

    Args:
        cache_dir: Directory of the shared table-artifact store (empty
            disables disk caching; the hot LRU needs the cache too).
        cache_backend: ``"json"`` or ``"bin"`` artifacts.
        hot_capacity: In-memory hot-table LRU size.
        job_workers: Concurrent jobs (and the job executor's threads).
        queue_capacity: Bounded job-queue depth (beyond it: 429).
        request_workers: Threads for synchronous request work.
        pool_workers: Process-pool size for stateless request work
            (``repro serve --workers N``).  At 1 (or where ``fork`` is
            unavailable) everything runs in-process as before; above 1 a
            :class:`~repro.service.pool.WorkerPool` executes sync
            compile/parse/analyze/fuzz requests and async compile jobs
            on forked workers sharing the on-disk store, with
            responses bit-identical to the in-process tier.
        job_ttl: Seconds a finished job stays pollable (0 = no TTL).
    """

    def __init__(
        self,
        cache_dir: str = "",
        cache_backend: str = "json",
        hot_capacity: int = 32,
        job_workers: int = 2,
        queue_capacity: int = 16,
        request_workers: int = 4,
        pool_workers: int = 1,
        job_ttl: float = 3600.0,
    ):
        self.cache = (
            TableCache(cache_dir, backend=cache_backend, hot_capacity=hot_capacity)
            if cache_dir
            else None
        )
        self.cache_dir = cache_dir
        self.cache_backend = cache_backend
        self.metrics = MetricsRegistry()
        self.jobs = JobQueue(
            self._run_job, workers=job_workers, capacity=queue_capacity,
            ttl=job_ttl,
        )
        self.pool: "Optional[WorkerPool]" = None
        if pool_workers > 1 and fork_available():
            self.pool = WorkerPool(
                pool_workers,
                cache_dir=cache_dir,
                cache_backend=cache_backend,
                hot_capacity=hot_capacity,
                absorb=self._absorb_worker,
            )
        self.sessions: "Dict[str, AnalysisSession]" = {}
        self._session_locks: "Dict[str, threading.Lock]" = {}
        self._sessions_guard = threading.Lock()
        self._request_executor = ThreadPoolExecutor(
            max_workers=max(1, request_workers), thread_name_prefix="repro-req"
        )

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        await self.jobs.start()
        if self.pool is not None:
            # Fork the workers before request traffic builds up state.
            self.pool.start()

    async def close(self) -> None:
        await self.jobs.close()
        if self.pool is not None:
            self.pool.close()
        self._request_executor.shutdown(wait=False)

    # -- dispatch ------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        started = time.perf_counter_ns()
        segments = [part for part in request.path.split("/") if part]
        endpoint = segments[0] if segments else "index"
        try:
            response = await self._dispatch(request, segments)
        except HttpError as error:
            response = Response.json(error.body(), status=error.status)
        except BudgetExceeded as error:
            self.metrics.inc("service.budget_exceeded")
            response = budget_exceeded_response(error)
        except WorkerCrash as error:
            # The worker-side rendering is already "TypeName: message",
            # so the body matches the in-process 500 byte for byte.
            self.metrics.inc("service.internal_errors")
            response = Response.json(
                {"error": "internal_error", "detail": error.rendered},
                status=500,
            )
        except Exception as error:  # noqa: BLE001 - the 500 of last resort
            self.metrics.inc("service.internal_errors")
            response = Response.json(
                {
                    "error": "internal_error",
                    "detail": f"{type(error).__name__}: {error}",
                },
                status=500,
            )
        self.metrics.inc("service.requests")
        self.metrics.inc(f"service.requests.{endpoint}")
        self.metrics.inc(f"service.responses.{response.status // 100}xx")
        self.metrics.inc("service.request_ns", time.perf_counter_ns() - started)
        return response

    async def _dispatch(self, request: Request, segments: "List[str]") -> Response:
        route = tuple(segments[:1])
        if route == ():
            return self._index(request)
        name = segments[0]
        if name == "healthz" and len(segments) == 1:
            self._expect(request, "GET")
            return Response.json({"ok": True})
        if name == "metrics" and len(segments) == 1:
            self._expect(request, "GET")
            return self._metrics(request)
        if name == "jobs" and len(segments) == 2:
            self._expect(request, "GET")
            return Response.json(self.jobs.get(segments[1]).as_dict())
        if name == "compile" and len(segments) == 1:
            self._expect(request, "POST")
            return await self._compile(request)
        if name == "analyze" and len(segments) == 1:
            self._expect(request, "POST")
            return await self._analyze(request)
        if name == "parse" and len(segments) == 1:
            self._expect(request, "POST")
            return await self._parse(request)
        if name == "fuzz" and len(segments) == 1:
            self._expect(request, "POST")
            return await self._fuzz(request)
        raise HttpError(404, "not_found", f"no endpoint {request.path!r}")

    @staticmethod
    def _expect(request: Request, method: str) -> None:
        if request.method != method:
            raise HttpError(
                405, "method_not_allowed",
                f"{request.path} accepts {method}, not {request.method}",
            )

    @staticmethod
    def _payload(request: Request) -> dict:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "bad_payload", "request body must be a JSON object")
        return payload

    def _index(self, request: Request) -> Response:
        self._expect(request, "GET")
        return Response.json(
            {
                "service": "repro-grammar-analysis",
                "endpoints": [
                    "POST /compile",
                    "POST /analyze",
                    "POST /parse",
                    "POST /fuzz",
                    "GET /jobs/<id>",
                    "GET /metrics",
                    "GET /healthz",
                ],
            }
        )

    # -- endpoint handlers ---------------------------------------------

    async def _compile(self, request: Request) -> Response:
        payload = self._payload(request)
        if payload.get("batch") is not None:
            job = self.jobs.submit("batch", payload)
            return Response.json(job.as_dict(), status=202)
        if payload.get("async"):
            job = self.jobs.submit("compile", payload)
            return Response.json(job.as_dict(), status=202)
        if self.pool is not None:
            return Response.json(
                await self._run_pool("compile", payload, request.headers)
            )
        budget = budget_from_headers(request.headers)
        method = _method_of(payload)
        result = await self._run(
            lambda: compile_result(
                _grammar_from_spec(payload), method, self.cache, budget
            )
        )
        return Response.json(result)

    async def _analyze(self, request: Request) -> Response:
        payload = self._payload(request)
        if payload.get("session") is not None:
            # Sessions are mutable in-process state (affinity + locks);
            # they never cross into the pool.
            result = await self._run(lambda: self._session_update(payload))
            return Response.json(result)
        if self.pool is not None:
            return Response.json(
                await self._run_pool("analyze", payload, request.headers)
            )
        budget = budget_from_headers(request.headers)
        result = await self._run(
            lambda: analyze_result(_grammar_from_spec(payload), budget)
        )
        return Response.json(result)

    async def _parse(self, request: Request) -> Response:
        payload = self._payload(request)
        if self.pool is not None:
            return Response.json(
                await self._run_pool("parse", payload, request.headers)
            )
        budget = budget_from_headers(request.headers)
        method = _method_of(payload)
        tokens = _tokens_of(payload)
        tree = bool(payload.get("tree"))
        engine = _engine_of(payload)
        result = await self._run(
            lambda: parse_result(
                _grammar_from_spec(payload), tokens, method, tree, self.cache,
                budget, engine,
            )
        )
        return Response.json(result)

    async def _fuzz(self, request: Request) -> Response:
        payload = self._payload(request)
        if payload.get("wait"):
            if self.pool is not None:
                return Response.json(
                    await self._run_pool("fuzz", payload, request.headers)
                )
            result = await self._run(lambda: fuzz_result(payload))
            return Response.json(result)
        job = self.jobs.submit("fuzz", payload)
        return Response.json(job.as_dict(), status=202)

    def _metrics(self, request: Request) -> Response:
        sections: "Dict[str, Dict[str, float]]" = {"jobs": self.jobs.stats()}
        if self.cache is not None:
            sections["cache"] = self.cache.stats()
        sections["sessions"] = self._session_stats()
        if self.pool is not None:
            sections["pool"] = self.pool.stats()
        wants_json = request.query.get("format") == "json" or (
            "application/json" in request.headers.get("accept", "")
        )
        if wants_json:
            return Response.json(self.metrics.render_json(sections))
        return Response.text(self.metrics.render_text(sections))

    # -- sessions (per-grammar affinity) -------------------------------

    def _session_update(self, payload: dict) -> dict:
        session_id = str(payload["session"])
        lock = self._session_lock(session_id)
        with lock:
            session = self.sessions.get(session_id)
            if "grammar" in payload or "corpus" in payload:
                grammar = _grammar_from_spec(payload)
                session = AnalysisSession(
                    grammar.augmented(), table_cache=self.cache
                )
                self.sessions[session_id] = session
                reports: "List[str]" = []
            elif session is None:
                raise HttpError(
                    404, "unknown_session",
                    f"no session {session_id!r}; POST a grammar to open one",
                )
            else:
                reports = []
            for edit in payload.get("edits", []):
                edited = self._apply_edit(session.grammar, edit)
                reports.append(session.update(edited).describe())
            table = session.table
            summary = table.conflict_summary()
            return {
                "session": session_id,
                "grammar": session.grammar.name,
                "states": table.n_states,
                "deterministic": table.is_deterministic,
                "conflicts": {
                    "shift_reduce": summary["shift_reduce"],
                    "reduce_reduce": summary["reduce_reduce"],
                    "resolved": summary["resolved"],
                },
                "updates": reports,
                "strategies": dict(session.strategy_counts),
            }

    @staticmethod
    def _apply_edit(grammar: Grammar, edit) -> Grammar:
        if not isinstance(edit, dict) or "op" not in edit:
            raise HttpError(400, "bad_edit", f"cannot interpret edit {edit!r}")
        rhs = edit.get("rhs", "")
        rhs_tokens = rhs.split() if isinstance(rhs, str) else [str(s) for s in rhs]
        try:
            op = edit["op"]
            if op == "set":
                return replace_rhs(grammar, int(edit["index"]), rhs_tokens)
            if op == "add":
                return add_production(grammar, str(edit["lhs"]), rhs_tokens)
            if op == "remove":
                return remove_production(grammar, int(edit["index"]))
        except (IndexError, KeyError, TypeError, ValueError) as error:
            raise HttpError(422, "bad_edit", f"{edit.get('op')}: {error}")
        raise HttpError(
            400, "bad_edit", f"unknown op {edit['op']!r} (known: set, add, remove)"
        )

    def _session_lock(self, session_id: str) -> threading.Lock:
        with self._sessions_guard:
            lock = self._session_locks.get(session_id)
            if lock is None:
                lock = self._session_locks[session_id] = threading.Lock()
            return lock

    def _session_stats(self) -> "Dict[str, float]":
        with self._sessions_guard:
            sessions = list(self.sessions.values())
        stats = {"active": len(sessions), "updates": 0}
        for strategy in ("noop", "memo", "splice", "rebuild"):
            stats[strategy] = 0
        for session in sessions:
            stats["updates"] += session.updates
            for strategy, count in session.strategy_counts.items():
                stats[strategy] += count
        return stats

    # -- execution plumbing --------------------------------------------

    async def _run_pool(self, kind: str, payload: dict, headers) -> dict:
        """Dispatch one stateless request to the worker pool and await
        its result; typed worker exceptions re-raise here and take the
        same `handle()` paths (and produce the same bytes) as in-process
        execution."""
        self.metrics.inc("service.pool.dispatched")
        future = self.pool.submit(kind, payload, dict(headers or {}))
        return await asyncio.wrap_future(future)

    def _absorb_worker(self, worker_id: int, counters) -> None:
        """Dispatcher-thread callback: fold one pooled request's
        instrument counters into the shared registry, tagged per worker
        so `/metrics` provably counts every pool member."""
        self.metrics.absorb(counters)
        self.metrics.inc(f"service.pool.worker.{worker_id}.requests")

    async def _run(self, fn):
        """Run *fn* on the request executor, folding its instrument
        counters into the metrics registry even when it raises."""
        loop = asyncio.get_running_loop()

        def call():
            prof = instrument.profile()
            collector = prof.__enter__()
            try:
                return fn()
            finally:
                prof.__exit__(None, None, None)
                self.metrics.absorb(collector.counters)

        return await loop.run_in_executor(self._request_executor, call)

    def _run_job(self, job: Job) -> dict:
        """The job runner (executes on the job executor's threads)."""
        prof = instrument.profile()
        collector = prof.__enter__()
        try:
            if job.kind == "fuzz":
                return fuzz_result(job.payload)
            if job.kind == "batch":
                return batch_result(
                    job.payload, cache_dir=self.cache_dir, backend=self.cache_backend
                )
            if job.kind == "compile":
                if self.pool is not None and self.pool.alive:
                    # Async compile jobs ride the same pool as sync
                    # requests; .result() blocks a job thread, not the
                    # event loop.
                    return self.pool.submit("compile", job.payload).result()
                budget = None
                method = _method_of(job.payload)
                return compile_result(
                    _grammar_from_spec(job.payload), method, self.cache, budget
                )
            raise HttpError(400, "unknown_job_kind", f"no job kind {job.kind!r}")
        finally:
            prof.__exit__(None, None, None)
            self.metrics.absorb(collector.counters)
