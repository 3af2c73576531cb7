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

Four design rules keep the serving layer honest:

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
- **Each grammar is resolved once per process.**  :class:`GrammarHandles`
  keeps the augmented grammar and its fingerprint of every recently
  served spec, so a warm request goes from bytes to the hot table
  without reading, augmenting or hashing its grammar again.  Both serving
  tiers run a request through the one :func:`execute`.

Where work runs follows one rule: **the event loop runs work whose
cost is bounded before it starts or capped while it runs, and the
executor gets the rest**, because a bounded request costs less than the
hand-off to a thread and back.

- A warm ``/parse`` (handle and table in memory, body at most
  :data:`QUICK_PARSE_BYTES`) runs on the loop: on the LR engine to the
  end, on GLR under a :data:`QUICK_GLR_SECONDS` wall-time cap past which
  it restarts on the executor, its attempt's counters thrown away.
- Session edits run on the loop while they splice (or are no-ops or
  memo restores), when their body is at most :data:`QUICK_PARSE_BYTES`,
  the session has at most :data:`QUICK_SESSION_STATES` states and its
  lock is free; the first edit that needs a rebuild hands the rest of
  the payload, lock held, to the executor.
- Everything else, including every stateless request of a process-pool
  tier, runs on the thread-pool executor or the pool.

Per-grammar **session affinity** is a named :class:`AnalysisSession`
guarded by its own lock, so repeated edits to one grammar ride the
incremental splice path while other grammars build in parallel.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..core import instrument
from ..core.budget import Budget, BudgetExceeded, CapExceeded
from ..grammar import Grammar, load_grammar
from ..grammar.delta import add_production, remove_production, replace_rhs
from ..grammar.errors import GrammarError
from ..grammar.fingerprint import grammar_fingerprint, text_fingerprint
from ..grammars import corpus
from ..parser import ConflictedTableError, ParseError, Parser
from ..pipeline import AnalysisSession, PendingRebuild
from ..tables import BUILDERS, TableCache, build_table
from .metrics import MetricsRegistry
from .pool import WorkerCrash, WorkerPool, fork_available
from .protocol import HttpError, Request, Response
from .qos import budget_exceeded_response, budget_from_headers

if TYPE_CHECKING:
    from .jobs import Job

__all__ = [
    "GrammarHandles",
    "GrammarService",
    "analyze_result",
    "batch_result",
    "compile_result",
    "execute",
    "fuzz_result",
    "parse_result",
]


# ---------------------------------------------------------------------------
# Pure result functions — the served contract, callable without a server.
# ---------------------------------------------------------------------------


def compile_result(
    grammar: Grammar,
    method: str = "lalr1",
    cache: "Optional[TableCache]" = None,
    budget: "Optional[Budget]" = None,
    fingerprint: "Optional[str]" = None,
) -> dict:
    """The ``POST /compile`` body: table shape and conflict summary.
    *fingerprint* is the augmented grammar's, when the caller holds it."""
    augmented, table = build_table(grammar, method, cache, budget, fingerprint)
    return {
        "grammar": grammar.name,
        "method": method,
        "fingerprint": fingerprint or grammar_fingerprint(augmented),
        "states": table.n_states,
        "deterministic": table.is_deterministic,
        "conflicts": table.conflict_summary(),
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
    fingerprint: "Optional[str]" = None,
) -> dict:
    """The ``POST /parse`` body: validity (plus the tree on request).

    Without *tree* no parse tree is built: the LR engine only recognizes
    (:meth:`Parser.check`) and GLR counts its forest's derivations
    instead of enumerating them."""
    _, table = build_table(grammar, method, cache, budget, fingerprint)
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
        if tree:
            result["tree"] = parser.parse(tokens, budget=budget).format()
        else:
            parser.check(tokens, budget=budget)
    except ParseError as error:
        return {"grammar": grammar.name, "valid": False, "error": str(error)}
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


def _spec_dict(spec) -> dict:
    """A payload spec as a dict: ``{"corpus": name}``, ``{"grammar":
    text, "name": ...}``, or a ``"corpus:<name>"`` or grammar-text string."""
    if isinstance(spec, str):
        if spec.startswith("corpus:"):
            spec = {"corpus": spec.split(":", 1)[1]}
        else:
            spec = {"grammar": spec}
    if not isinstance(spec, dict):
        raise HttpError(400, "bad_grammar_spec", f"cannot interpret {spec!r}")
    return spec


def _grammar_from_spec(spec) -> Grammar:
    """A freshly read grammar from a payload spec (see :func:`_spec_dict`)."""
    spec = _spec_dict(spec)
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


class GrammarHandles:
    """One process's memo of resolved grammar specs, LRU-bounded.

    A handle is ``(augmented grammar, grammar_fingerprint)``, keyed by
    ``("corpus", name)`` or ``text_fingerprint(text, name)``: the raw
    text is never held, and one text under two names is two handles (the
    name is echoed in responses).  A failing spec raises before anything
    is stored.  Lookups count ``service.handles.hits``/``misses``/
    ``evictions``.  Sessions never read a handle: their edits intern
    symbols in the grammar's symbol table.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._handles: "OrderedDict[object, Tuple[Grammar, str]]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._handles)

    @staticmethod
    def _key(spec: dict):
        if "corpus" in spec:
            return ("corpus", spec["corpus"])
        if "grammar" in spec:
            return text_fingerprint(str(spec["grammar"]), str(spec.get("name", "grammar")))
        return None

    def peek(self, spec) -> "Optional[Tuple[Grammar, str]]":
        """*spec*'s handle if memoized, else None (never counts or raises)."""
        try:
            key = self._key(_spec_dict(spec))
            with self._lock:
                return self._handles.get(key)
        except (HttpError, TypeError):
            return None

    def resolve(self, spec) -> "Tuple[Grammar, str]":
        spec = _spec_dict(spec)
        key = self._key(spec)
        with self._lock:
            handle = self._handles.get(key)
            if handle is not None:
                self._handles.move_to_end(key)
        if handle is not None:
            instrument.count("service.handles.hits")
            return handle
        instrument.count("service.handles.misses")
        grammar = _grammar_from_spec(spec).augmented()
        handle = (grammar, grammar_fingerprint(grammar))
        if self.capacity:
            with self._lock:
                self._handles[key] = handle
                evicted = len(self._handles) > self.capacity
                if evicted:
                    self._handles.popitem(last=False)
            if evicted:
                instrument.count("service.handles.evictions")
        return handle


def execute(
    kind: str,
    payload: dict,
    headers: "Dict[str, str]",
    cache: "Optional[TableCache]",
    handles: GrammarHandles,
    glr_cap: "Optional[float]" = None,
) -> dict:
    """One stateless request, as both serving tiers run it: the
    in-process tier on the event loop or a request thread, each pool
    worker with its own *handles*.  Validation runs in this one order
    (budget headers, method, input, engine, grammar), so both tiers
    refuse a request with the same bytes.  With *glr_cap* a GLR parse
    runs under :meth:`Budget.capped` and raises :class:`CapExceeded`
    once that many seconds have passed."""
    if kind == "fuzz":
        return fuzz_result(payload)
    budget = budget_from_headers(headers)
    if kind == "analyze":
        return analyze_result(handles.resolve(payload)[0], budget)
    method = _method_of(payload)
    if kind == "compile":
        grammar, fingerprint = handles.resolve(payload)
        return compile_result(grammar, method, cache, budget, fingerprint)
    if kind == "parse":
        tokens = _tokens_of(payload)
        tree = bool(payload.get("tree"))
        engine = _choice(payload, "engine", "lr", ("lr", "glr"))
        grammar, fingerprint = handles.resolve(payload)
        if glr_cap is not None and engine == "glr":
            budget = Budget.capped(budget, glr_cap)
        return parse_result(
            grammar, tokens, method, tree, cache, budget, engine, fingerprint
        )
    raise HttpError(400, "unknown_job_kind", f"no request kind {kind!r}")


def _batch_compile_worker(task: tuple) -> dict:
    """One batch-job grammar, as a plain picklable row (runs in a forked
    worker when the job asks for ``workers > 1``)."""
    spec, method, cache_dir = task
    cache = TableCache(cache_dir) if cache_dir else None
    try:
        grammar = _grammar_from_spec(spec)
        row = compile_result(grammar, method, cache)
    except HttpError as error:
        return {"status": "error", "detail": error.detail}
    except Exception as error:  # a bad grammar must not kill the batch
        return {"status": "error", "detail": f"{type(error).__name__}: {error}"}
    row["status"] = "ok" if row["deterministic"] else "conflicted"
    return row


def batch_result(payload: dict, cache_dir: str = "") -> dict:
    """``repro batch`` semantics as a job: compile every grammar spec,
    fanned across processes, sharing the on-disk artifact store."""
    from ..core.parallel import parallel_map

    specs = payload.get("batch")
    if not isinstance(specs, list) or not specs:
        raise HttpError(400, "bad_batch", "'batch' must be a non-empty list")
    method = _method_of(payload)
    workers = int(payload.get("workers", 1))
    tasks = [(spec, method, cache_dir) for spec in specs]
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


def _choice(payload: dict, key: str, default: str, known) -> str:
    """``payload[key]`` (or *default*), which must be one of *known*."""
    value = payload.get(key, default)
    if value not in known:
        raise HttpError(
            400, f"bad_{key}",
            f"unknown {key} {value!r} (known: {', '.join(sorted(known))})",
        )
    return value


def _method_of(payload: dict) -> str:
    return _choice(payload, "method", "lalr1", BUILDERS)


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


#: Largest request body that may run on the event loop: a ``/parse``,
#: or a session edit payload, whose edit count it bounds.
QUICK_PARSE_BYTES = 1024

#: Wall-clock seconds a GLR parse may hold the event loop before it
#: restarts on the executor.  The cap bounds time, not steps: GLR's cost
#: per step varies by orders of magnitude between grammars.
QUICK_GLR_SECONDS = 0.002

#: Largest session automaton (LR(0) states) whose edits may run on the
#: event loop: a splice's cost is bounded by the automaton's size.
QUICK_SESSION_STATES = 256


class GrammarService:
    """Shared state and request handling for one serving process.

    Args:
        cache_dir: Directory of the shared table-artifact store of
            binary ``.rtb`` entries (empty disables disk caching; the
            hot LRU needs the cache too).
        hot_capacity: In-memory hot-table LRU size, and the size of
            each process's :class:`GrammarHandles` memo.
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
        hot_capacity: int = 32,
        job_workers: int = 2,
        queue_capacity: int = 16,
        request_workers: int = 4,
        pool_workers: int = 1,
        job_ttl: float = 3600.0,
    ):
        self.cache = (
            TableCache(cache_dir, hot_capacity=hot_capacity)
            if cache_dir
            else None
        )
        self.cache_dir = cache_dir
        self.handles = GrammarHandles(hot_capacity)
        self.metrics = MetricsRegistry()
        # Imported here, like asyncio below: the pure result functions
        # (and `repro parse`, which calls one) never load the event loop.
        from .jobs import JobQueue

        self.jobs = JobQueue(
            self._run_job, workers=job_workers, capacity=queue_capacity,
            ttl=job_ttl,
        )
        self.pool: "Optional[WorkerPool]" = None
        if pool_workers > 1 and fork_available():
            self.pool = WorkerPool(
                pool_workers,
                cache_dir=cache_dir,
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
        if not segments:
            return self._index(request)
        if segments[0] == "jobs" and len(segments) == 2:
            self._expect(request, "GET")
            return Response.json(self.jobs.get(segments[1]).as_dict())
        route = self._ROUTES.get(segments[0]) if len(segments) == 1 else None
        if route is None:
            raise HttpError(404, "not_found", f"no endpoint {request.path!r}")
        method, handler = route
        self._expect(request, method)
        return await handler(self, request)

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

    async def _healthz(self, request: Request) -> Response:
        return Response.json({"ok": True})

    async def _compile(self, request: Request) -> Response:
        payload = self._payload(request)
        if payload.get("batch") is not None:
            job = self.jobs.submit("batch", payload)
            return Response.json(job.as_dict(), status=202)
        if payload.get("async"):
            job = self.jobs.submit("compile", payload)
            return Response.json(job.as_dict(), status=202)
        return await self._execute("compile", payload, request.headers)

    async def _analyze(self, request: Request) -> Response:
        payload = self._payload(request)
        if payload.get("session") is None:
            return await self._execute("analyze", payload, request.headers)
        # Sessions are mutable in-process state (affinity + locks); they
        # never cross into the pool.
        lock = self._quick_session_lock(request, payload)
        if lock is None:
            self.metrics.inc("service.analyze.executor")
            return Response.json(await self._run(lambda: self._session_update(payload)))
        self.metrics.inc("service.analyze.inline")
        steps = self._session_steps(payload, lock)
        result = self._profiled(lambda: _resume(steps))
        if result is None:
            # An edit needs a rebuild: the executor finishes the payload,
            # still under the session's lock.
            self.metrics.inc("service.analyze.handoffs")
            self.metrics.inc("service.analyze.executor")
            result = await self._run(lambda: _finish(steps))
        return Response.json(result)

    async def _parse(self, request: Request) -> Response:
        payload = self._payload(request)
        if self._is_quick(request, payload):
            self.metrics.inc("service.parse.inline")
            try:
                return Response.json(self._profiled(lambda: execute(
                    "parse", payload, request.headers, self.cache, self.handles,
                    glr_cap=QUICK_GLR_SECONDS,
                )))
            except CapExceeded:
                self.metrics.inc("service.parse.restarts")
        return await self._execute("parse", payload, request.headers)

    def _is_quick(self, request: Request, payload: dict) -> bool:
        """A short parse whose handle and table are in memory.  An LR
        parse of it is bounded before it starts, and a GLR parse is
        capped at :data:`QUICK_GLR_SECONDS` while it runs; either costs
        less on the event loop than the executor's two thread hand-offs."""
        if self.pool is not None or self.cache is None or len(request.body) > QUICK_PARSE_BYTES:
            return False
        handle = self.handles.peek(payload)
        method = payload.get("method", "lalr1")
        return (
            handle is not None
            and isinstance(method, str) and self.cache.is_hot(method, handle[1])
        )

    async def _fuzz(self, request: Request) -> Response:
        payload = self._payload(request)
        if payload.get("wait"):
            return await self._execute("fuzz", payload, request.headers)
        job = self.jobs.submit("fuzz", payload)
        return Response.json(job.as_dict(), status=202)

    async def _metrics(self, request: Request) -> Response:
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

    #: endpoint -> (HTTP method, handler); ``/jobs/<id>`` and the index
    #: are matched in :meth:`_dispatch`.
    _ROUTES = {
        "healthz": ("GET", _healthz),
        "metrics": ("GET", _metrics),
        "compile": ("POST", _compile),
        "analyze": ("POST", _analyze),
        "parse": ("POST", _parse),
        "fuzz": ("POST", _fuzz),
    }

    # -- sessions (per-grammar affinity) -------------------------------

    def _session_update(self, payload: dict) -> dict:
        """One session request, whole, on the calling thread."""
        lock = self._session_lock(str(payload["session"]))
        lock.acquire()
        return _finish(self._session_steps(payload, lock))

    def _quick_session_lock(
        self, request: Request, payload: dict
    ) -> "Optional[threading.Lock]":
        """The session's lock, acquired, when this request may run on the
        event loop: edits (and no grammar) in a body of at most
        :data:`QUICK_PARSE_BYTES`, to an open session of at most
        :data:`QUICK_SESSION_STATES` states whose lock is free.  The two
        sizes bound the edit count and each splice's cost.  Else None;
        the loop never waits for the lock."""
        if (
            len(request.body) > QUICK_PARSE_BYTES
            or "grammar" in payload or "corpus" in payload or "edits" not in payload
        ):
            return None
        session_id = str(payload["session"])
        lock = self._session_lock(session_id)
        if not lock.acquire(blocking=False):
            return None
        session = self.sessions.get(session_id)
        if session is not None and len(session.automaton.states) <= QUICK_SESSION_STATES:
            return lock
        lock.release()
        return None

    def _session_steps(self, payload: dict, lock: threading.Lock):
        """One session request as a generator that returns the response
        body.  It runs with the session's *lock* held and releases it when
        it ends, however it ends.  It yields before each rebuild, the one
        step whose cost does not follow the edit: the event loop hands
        the rest to the executor there, and :func:`_finish` runs through."""
        try:
            session_id = str(payload["session"])
            session = self.sessions.get(session_id)
            if "grammar" in payload or "corpus" in payload:
                grammar = _grammar_from_spec(payload)
                session = AnalysisSession(
                    grammar.augmented(), table_cache=self.cache
                )
                self.sessions[session_id] = session
            elif session is None:
                raise HttpError(
                    404, "unknown_session",
                    f"no session {session_id!r}; POST a grammar to open one",
                )
            reports: "List[str]" = []
            for edit in payload.get("edits", []):
                edited = self._apply_edit(session.grammar, edit)
                step = session.attempt(edited)
                if isinstance(step, PendingRebuild):
                    yield
                    step = session.rebuild(step)
                reports.append(step.describe())
            table = session.table
            return {
                "session": session_id,
                "grammar": session.grammar.name,
                "states": table.n_states,
                "deterministic": table.is_deterministic,
                "conflicts": table.conflict_summary(),
                "updates": reports,
                "strategies": dict(session.strategy_counts),
            }
        finally:
            lock.release()

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

    async def _execute(self, kind: str, payload: dict, headers) -> Response:
        """One stateless request through :func:`execute`: on the worker
        pool when there is one, else on the request executor.  A typed
        worker exception re-raises here and takes the same `handle()`
        path (and produces the same bytes) as in-process execution."""
        import asyncio

        self.metrics.inc(f"service.{kind}.executor")
        if self.pool is not None:
            self.metrics.inc("service.pool.dispatched")
            future = self.pool.submit(kind, payload, dict(headers or {}))
            return Response.json(await asyncio.wrap_future(future))
        result = await self._run(
            lambda: execute(kind, payload, headers, self.cache, self.handles)
        )
        return Response.json(result)

    def _absorb_worker(self, worker_id: int, counters) -> None:
        """Dispatcher-thread callback: fold one pooled request's
        instrument counters into the shared registry, tagged per worker
        so `/metrics` provably counts every pool member."""
        self.metrics.absorb(counters)
        self.metrics.inc(f"service.pool.worker.{worker_id}.requests")

    def _profiled(self, fn):
        """Call *fn*, folding its instrument counters into the metrics
        registry even when it raises.  A capped run that stopped
        (:class:`CapExceeded`) is abandoned, and so are its counters and
        the cache's tally of its hot hits: the executor reruns it from
        the start."""
        prof = instrument.profile()
        collector = prof.__enter__()
        try:
            return fn()
        except CapExceeded:
            if self.cache is not None:
                self.cache.forget_hot_hits(
                    collector.counters.get("table.cache.hot_hits", 0)
                )
            collector = None
            raise
        finally:
            prof.__exit__(None, None, None)
            if collector is not None:
                self.metrics.absorb(collector.counters)

    async def _run(self, fn):
        """Run *fn*, profiled, on the request executor."""
        import asyncio

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._request_executor, self._profiled, fn)

    def _run_job(self, job: Job) -> dict:
        """The job runner (executes on the job executor's threads)."""
        return self._profiled(lambda: self._job_result(job))

    def _job_result(self, job: Job) -> dict:
        if job.kind == "fuzz":
            return fuzz_result(job.payload)
        if job.kind == "batch":
            return batch_result(job.payload, cache_dir=self.cache_dir)
        if job.kind == "compile":
            if self.pool is not None and self.pool.alive:
                # Async compile jobs ride the same pool as sync requests;
                # .result() blocks a job thread, not the event loop.
                return self.pool.submit("compile", job.payload).result()
            return execute("compile", job.payload, {}, self.cache, self.handles)
        raise HttpError(400, "unknown_job_kind", f"no job kind {job.kind!r}")


def _resume(steps) -> "Optional[dict]":
    """Run a session request's steps (:meth:`GrammarService
    ._session_steps`) on: its response body, or None at a rebuild."""
    try:
        next(steps)
    except StopIteration as done:
        return done.value
    return None


def _finish(steps) -> dict:
    """Run a session request's steps to the end, rebuilds included."""
    while True:
        result = _resume(steps)
        if result is not None:
            return result
