"""In-process replay of a workload, timing each layer's public call.

The traced run leaves the server uninstrumented.  It replays the same
warm-up and request list in this process, calling each layer's public
function in the order the service handler calls it, and times each
call.  Alongside, an untraced replay calls the pure result functions
(``parse_result``, ``compile_result``) or the session directly; that is
``service.inproc_us``.  Per request, and then as a median over
requests, ``coverage`` is the sum of the layers that do not nest inside
one another over the untraced time, ``service.residual_us`` the served
latency minus the untraced time, and the tracing overhead the traced
wall time minus the untraced one.

Look-ahead sub-phases (relations, the two Digraph passes) come from the
spans :class:`repro.core.lalr.LalrAnalysis` already records when a
:mod:`repro.core.instrument` profile is active.  Exact counts come from
one counting pass, so they do not depend on how long the run was.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from typing import Dict, List

from repro.automaton.lr0 import LR0Automaton
from repro.core import instrument
from repro.core.lalr import LalrAnalysis
from repro.grammar import load_grammar
from repro.grammar.delta import classify, replace_rhs
from repro.grammar.fingerprint import grammar_fingerprint
from repro.grammars import corpus
from repro.parser import GlrParser, ParseError, Parser
from repro.pipeline import AnalysisSession
from repro.service.app import compile_result, parse_result
from repro.service.protocol import Request as HttpRequest
from repro.service.protocol import canonical_json
from repro.tables import TableCache, build_lalr_table, specialized_view
from repro.tables.binfmt import table_to_bytes

#: Pass numbers for the compile-cold placeholder: each replay pass
#: renames the ladder afresh, so every build in it is a cache miss.
_COUNT_PASS = 900000
_TRACED_PASS = 100000
_PLAIN_PASS = 500000


def _timed(record: Dict[str, float], name: str, fn, *args, covered=True, **kwargs):
    """Call *fn*, adding its duration in microseconds to ``record[name]``
    and, when it does not nest inside another timed call, to the
    request's covered total."""
    begin = time.perf_counter_ns()
    value = fn(*args, **kwargs)
    elapsed = (time.perf_counter_ns() - begin) / 1e3
    record[name] = record.get(name, 0.0) + elapsed
    if covered:
        record["_covered"] = record.get("_covered", 0.0) + elapsed
    return value


def _decode(body: bytes, path: str) -> dict:
    return HttpRequest("POST", path, {}, body).json()


def _outcome(name: str, run) -> dict:
    try:
        return dict({"grammar": name, "valid": True}, **run())
    except ParseError as error:
        return {"grammar": name, "valid": False, "error": str(error)}


class Replay:
    """The replay of one workload over its own artifact store."""

    def __init__(self, workload, cache_dir: str):
        self.workload = workload
        self.cache = TableCache(cache_dir, backend="bin", hot_capacity=32)
        #: metric -> one value per timed event, in microseconds.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: request index -> traced covered sums / traced walls / untraced times.
        self.covered: Dict[int, List[float]] = defaultdict(list)
        self.walls: Dict[int, List[float]] = defaultdict(list)
        self.plain: Dict[int, List[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.engine_tokens: Counter = Counter()
        self.sessions: Dict[str, AnalysisSession] = {}
        self.plain_sessions: Dict[str, AnalysisSession] = {}
        self.counting = False
        self.lookups = 0

    # -- the build path ---------------------------------------------------

    def _build(self, record: Dict[str, float], grammar, record_walks=False):
        """LR(0) -> look-aheads -> table fill -> store, as the cache's
        builder (or a session's full build) runs them."""
        automaton = _timed(record, "automaton.lr0", LR0Automaton, grammar)
        with instrument.profile() as profile:
            analysis = _timed(
                record, "core.lalr", LalrAnalysis, grammar, automaton,
                record_walks=record_walks,
            )
        record["core.relations"] = profile.total("lalr.relations") * 1e6
        record["core.digraph.reads"] = profile.total("lalr.digraph.reads") * 1e6
        record["core.digraph.includes"] = profile.total("lalr.digraph.includes") * 1e6
        table = _timed(
            record, "tables.build.fill", build_lalr_table, grammar, automaton,
            la_masks=analysis.la_masks,
        )
        _timed(record, "tables.cache.store", self.cache.store, table)
        blob = _timed(record, "tables.binfmt.encode", table_to_bytes, table, covered=False)
        if self.counting:
            stats = analysis.relations.stats()
            self.counts["lr0.states"] += len(automaton.states)
            self.counts["relations.edges"] += stats["reads_edges"] + stats["includes_edges"]
            self.counts["digraph.unions"] += analysis.stats.unions
            self.counts["tables.binfmt.bytes"] += len(blob)
        return table

    def warm(self, request) -> None:
        """Replay one set-up request: a corpus compile, a session open or
        a warm-up parse (untimed)."""
        record: Dict[str, float] = {}
        name = request.payload.get("corpus")
        if request.path == "/parse":
            self._parse(request.body, {})
            return
        grammar = _timed(record, "grammar.read", lambda: corpus.load(name).augmented())
        self._build(record, grammar, record_walks=request.path == "/analyze")
        self._keep(record)
        if request.path == "/analyze":
            self.sessions[name] = AnalysisSession(grammar, table_cache=self.cache)
            self.plain_sessions[name] = AnalysisSession(
                corpus.load(name).augmented(), table_cache=self.cache
            )

    def _keep(self, record: Dict[str, float]) -> None:
        for name, value in record.items():
            if not name.startswith("_"):
                self.samples[name].append(value)

    # -- one request, traced ----------------------------------------------

    def _parse(self, body: bytes, record: Dict[str, float]) -> None:
        payload = _timed(record, "service.protocol.decode", _decode, body, "/parse")
        tokens = [str(token) for token in payload["input"]]
        name, engine = payload["corpus"], payload.get("engine", "lr")
        grammar = _timed(
            record, "grammar.resolve", lambda: corpus.load(name).augmented()
        )
        _timed(record, "grammar.fingerprint", grammar_fingerprint, grammar, covered=False)
        table = _timed(record, "tables.cache.lookup", self.cache.load, grammar, "lalr1")
        if engine == "glr":
            glr = _timed(record, "parser.setup", GlrParser, table)
            result = _timed(record, "parser.glr", _outcome, name, lambda: {
                "trees": glr.parse_forest(tokens).tree_count(limit=1000)
            })
        else:
            parser = _timed(record, "parser.setup", lambda: Parser(specialized_view(table)))

            def accept():
                parser.parse(tokens)
                return {}

            result = _timed(record, "parser.engine", _outcome, name, accept)
        self.engine_tokens[engine] += len(tokens)
        _timed(record, "service.render", canonical_json, result)

    def _compile(self, body: bytes, record: Dict[str, float]) -> None:
        payload = _timed(record, "service.protocol.decode", _decode, body, "/compile")
        grammar = _timed(
            record, "grammar.read",
            lambda: load_grammar(payload["grammar"], name=payload["name"]).augmented(),
        )
        _timed(record, "tables.cache.lookup", self.cache.load, grammar, "lalr1")
        table = self._build(record, grammar)
        fingerprint = _timed(record, "grammar.fingerprint", grammar_fingerprint, grammar)

        def render():
            summary = table.conflict_summary()
            return canonical_json({
                "grammar": grammar.name, "method": "lalr1", "fingerprint": fingerprint,
                "states": table.n_states, "deterministic": table.is_deterministic,
                "conflicts": {k: summary[k] for k in ("shift_reduce", "reduce_reduce", "resolved")},
            })

        _timed(record, "service.render", render)

    def _edit(self, body: bytes, record: Dict[str, float]) -> None:
        payload = _timed(record, "service.protocol.decode", _decode, body, "/analyze")
        edit = payload["edits"][0]
        session = self.sessions[payload["session"]]
        before = session.grammar
        edited = _timed(record, "_replace", replace_rhs, before, int(edit["index"]), edit["rhs"])
        _timed(record, "_classify", classify, before, edited, covered=False)
        record["grammar.delta.apply"] = record.pop("_replace") + record.pop("_classify")
        report = _timed(record, "pipeline.session.update", session.update, edited)
        if self.counting:
            self.counts["session.updates"] += 1
            self.counts["session.splices"] += report.strategy == "splice"
            self.counts["session.dirty_states"] += report.dirty_states
        _timed(record, "service.render", lambda: canonical_json(
            _session_body(payload["session"], session, [report.describe()])
        ))

    # -- one request, untraced --------------------------------------------

    def _plain(self, request, body: bytes) -> None:
        payload = _decode(body, request.path)
        if request.path == "/parse":
            result = parse_result(
                corpus.load(payload["corpus"]), [str(t) for t in payload["input"]],
                "lalr1", False, self.cache, None, payload.get("engine", "lr"),
            )
        elif request.path == "/compile":
            grammar = load_grammar(payload["grammar"], name=payload["name"])
            result = compile_result(grammar, "lalr1", self.cache)
        else:
            edit = payload["edits"][0]
            session = self.plain_sessions[payload["session"]]
            edited = replace_rhs(session.grammar, int(edit["index"]), edit["rhs"])
            report = session.update(edited)
            result = _session_body(payload["session"], session, [report.describe()])
        canonical_json(result)

    # -- passes ------------------------------------------------------------

    def _pass(self, number: int, traced: bool) -> None:
        step = {"/parse": self._parse, "/compile": self._compile, "/analyze": self._edit}
        for index, request in enumerate(self.workload.requests):
            body = request.body_for_pass(number)
            if not traced:
                begin = time.perf_counter_ns()
                self._plain(request, body)
                self.plain[index].append((time.perf_counter_ns() - begin) / 1e3)
                continue
            record: Dict[str, float] = {}
            begin = time.perf_counter_ns()
            step[request.path](body, record)
            wall = (time.perf_counter_ns() - begin) / 1e3
            if self.counting:
                continue
            self._keep(record)
            self.covered[index].append(record["_covered"])
            self.walls[index].append(wall)

    def prepare(self) -> None:
        """Replay the set-up requests, then one counting pass."""
        self.counting = True
        for request in self.workload.warmup:
            self.warm(request)
        lookups_before = self.cache.hits + self.cache.misses + self.cache.hot_hits
        with instrument.profile() as profile:
            self._pass(_COUNT_PASS, traced=True)
        counters = profile.counters
        self.counts["parse.shifts"] = counters.get("parse.shifts", 0)
        self.counts["parse.reduces"] = counters.get("parse.reduces", 0)
        self.counts["glr.gss_nodes"] = counters.get("glr.gss_nodes", 0)
        self.counts["table.rows_refilled"] = counters.get("phase.table.rows_refilled", 0)
        self.counts["tables.cache.hot_hits"] = counters.get("table.cache.hot_hits", 0)
        self.lookups = self.cache.hits + self.cache.misses + self.cache.hot_hits - lookups_before
        self.counting = False
        self.engine_tokens.clear()

    def step(self, number: int) -> None:
        """One untraced and one traced pass over the request list."""
        self._pass(_PLAIN_PASS + number, traced=False)
        self._pass(_TRACED_PASS + number, traced=True)

    # -- report -------------------------------------------------------------

    def metrics(self, served_ms: Dict[int, List[float]]) -> Dict[str, float]:
        """Every per-layer metric by name, given the served latencies of
        each request; layers the workload does not run read 0."""
        def median(name: str, scale: float = 1.0) -> float:
            values = self.samples.get(name)
            return statistics.median(values) * scale if values else 0.0

        def rate(engine: str, layer: str) -> float:
            busy = sum(self.samples.get(layer, ()))
            return self.engine_tokens[engine] / (busy / 1e6) if busy else 0.0

        def per_request(of) -> float:
            """Median over requests of ``of(index, untraced median)``."""
            return statistics.median(
                of(i, statistics.median(self.plain[i])) for i in self.covered
            )

        inproc = statistics.median(value for values in self.plain.values() for value in values)
        counts = self.counts
        lookups = self.lookups
        updates = counts["session.updates"]
        return {
            "service.protocol.decode_us": median("service.protocol.decode"),
            "grammar.resolve_us": median("grammar.resolve"),
            "grammar.fingerprint_us": median("grammar.fingerprint"),
            "tables.cache.lookup_us": median("tables.cache.lookup"),
            "tables.cache.hot_hit_ratio": counts["tables.cache.hot_hits"] / lookups if lookups else 0.0,
            "tables.cache.hot_hits": counts["tables.cache.hot_hits"],
            "parser.setup_us": median("parser.setup"),
            "parser.engine_us": median("parser.engine"),
            "parser.engine.tokens_per_s": rate("lr", "parser.engine"),
            "parser.glr_us": median("parser.glr"),
            "parser.glr.tokens_per_s": rate("glr", "parser.glr"),
            "parse.shifts": counts["parse.shifts"],
            "parse.reduces": counts["parse.reduces"],
            "glr.gss_nodes": counts["glr.gss_nodes"],
            "service.render_us": median("service.render"),
            "service.inproc_us": inproc,
            "service.residual_us": per_request(
                lambda i, plain: statistics.median(served_ms[i]) * 1e3 - plain
            ),
            "coverage": per_request(lambda i, plain: statistics.median(self.covered[i]) / plain),
            "trace.overhead_us": per_request(
                lambda i, plain: statistics.median(self.walls[i]) - plain
            ),
            "grammar.read_ms": median("grammar.read", 1e-3),
            "automaton.lr0_ms": median("automaton.lr0", 1e-3),
            "core.relations_ms": median("core.relations", 1e-3),
            "core.digraph.reads_ms": median("core.digraph.reads", 1e-3),
            "core.digraph.includes_ms": median("core.digraph.includes", 1e-3),
            "core.lalr_ms": median("core.lalr", 1e-3),
            "tables.build.fill_ms": median("tables.build.fill", 1e-3),
            "tables.binfmt.encode_ms": median("tables.binfmt.encode", 1e-3),
            "tables.cache.store_ms": median("tables.cache.store", 1e-3),
            "tables.binfmt.bytes": counts["tables.binfmt.bytes"],
            "lr0.states": counts["lr0.states"],
            "relations.edges": counts["relations.edges"],
            "digraph.unions": counts["digraph.unions"],
            "grammar.delta.apply_ms": median("grammar.delta.apply", 1e-3),
            "pipeline.session.update_ms": median("pipeline.session.update", 1e-3),
            "pipeline.session.splice_share": counts["session.splices"] / updates if updates else 0.0,
            "session.dirty_states": counts["session.dirty_states"],
            "table.rows_refilled": counts["table.rows_refilled"],
        }


def _session_body(session_id: str, session: AnalysisSession, reports: List[str]) -> dict:
    """The ``POST /analyze`` session reply, as the handler builds it."""
    table = session.table
    summary = table.conflict_summary()
    return {
        "session": session_id,
        "grammar": session.grammar.name,
        "states": table.n_states,
        "deterministic": table.is_deterministic,
        "conflicts": {k: summary[k] for k in ("shift_reduce", "reduce_reduce", "resolved")},
        "updates": reports,
        "strategies": dict(session.strategy_counts),
    }
