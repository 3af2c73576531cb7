"""The grammar-handle memo: each served grammar is resolved once per process.

A warm request must go from its payload to the hot table without reading,
augmenting or hashing its grammar again, on both serving tiers, while the
answers (and the refusals) stay byte-identical to a fresh resolution.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time

import pytest

from repro.core import instrument
from repro.grammar.fingerprint import grammar_fingerprint
from repro.grammars import corpus
from repro.service import Client, HttpError, ServiceThread, fork_available
from repro.service import app
from repro.service.app import GrammarHandles
from repro.tables import TableCache, build_lalr_table

PARSE = {"corpus": "expr", "input": "id + id * id"}
GLR_PARSE = {"corpus": "dangling_else", "input": "if other", "engine": "glr"}
MINI_C = "int ID ( char ID , void ID ) { int ID ; ID = ID ( * - ! ID ) ; }"

#: 4xx refusals and their exact bodies: no memo may change or keep them.
REFUSALS = [
    (
        {"corpus": "no_such", "input": "a"},
        422,
        '{"detail":"no corpus grammar \'no_such\' (known: '
        + ", ".join(corpus.names())
        + ')","error":"unknown_corpus"}\n',
    ),
    (
        {"grammar": "S -> -> a", "name": "bad", "input": "a"},
        422,
        '{"detail":"1:6: empty alternative; write %empty explicitly '
        '(got ARROW \'->\')","error":"grammar_error"}\n',
    ),
    (
        {"input": "a"},
        400,
        '{"detail":"payload needs \'grammar\' or \'corpus\'",'
        '"error":"missing_grammar"}\n',
    ),
]


@pytest.fixture
def counted_loads(monkeypatch):
    """Count ``corpus.load`` calls through the instrument layer, so pool
    workers report theirs through ``/metrics`` like any other counter."""
    real = corpus.load

    def load(name, augment=False):
        instrument.count("test.corpus_loads")
        return real(name, augment)

    monkeypatch.setattr(corpus, "load", load)


def _counters(client: Client) -> dict:
    return client.get("/metrics?format=json").json()["counters"]


class TestGrammarHandles:
    def test_one_handle_per_spec(self):
        handles = GrammarHandles(4)
        grammar, fingerprint = handles.resolve({"corpus": "expr"})
        assert grammar.is_augmented
        assert handles.resolve("corpus:expr") == (grammar, fingerprint)
        assert len(handles) == 1

    def test_one_text_under_two_names_is_two_handles(self):
        handles = GrammarHandles(4)
        text = "S -> a S | b"
        first, first_fp = handles.resolve({"grammar": text, "name": "one"})
        second, second_fp = handles.resolve({"grammar": text, "name": "two"})
        assert (first.name, second.name) == ("one", "two")
        assert first is not second and first_fp == second_fp
        assert handles.resolve({"grammar": text, "name": "one"})[0] is first
        assert len(handles) == 2

    def test_failures_are_never_memoized(self):
        handles = GrammarHandles(4)
        for spec in ({"corpus": "no_such"}, {"grammar": "S -> -> a"}, {}, 42):
            for _ in range(2):
                with pytest.raises(HttpError):
                    handles.resolve(spec)
        assert len(handles) == 0

    def test_evicts_least_recently_used_at_capacity(self):
        handles = GrammarHandles(2)
        with instrument.profile() as profile:
            expr = handles.resolve({"corpus": "expr"})[0]
            handles.resolve({"corpus": "json"})
            handles.resolve({"corpus": "expr"})
            handles.resolve({"corpus": "lr0_demo"})  # evicts json
            assert handles.resolve({"corpus": "expr"})[0] is expr
            handles.resolve({"corpus": "json"})  # evicts expr
        assert len(handles) == 2
        assert profile.counters["service.handles.hits"] == 2
        assert profile.counters["service.handles.misses"] == 4
        assert profile.counters["service.handles.evictions"] == 2

    def test_peek_neither_resolves_nor_counts(self):
        handles = GrammarHandles(4)
        with instrument.profile() as profile:
            assert handles.peek({"corpus": "expr"}) is None
            handle = handles.resolve({"corpus": "expr"})
            assert handles.peek("corpus:expr") == handle
            for spec in ({"corpus": "no_such"}, {"corpus": ["expr"]}, {}, 42):
                assert handles.peek(spec) is None
        assert len(handles) == 1
        assert profile.counters["service.handles.misses"] == 1
        assert "service.handles.hits" not in profile.counters

    def test_zero_capacity_holds_nothing(self):
        handles = GrammarHandles(0)
        first = handles.resolve({"corpus": "expr"})[0]
        assert handles.resolve({"corpus": "expr"})[0] is not first
        assert len(handles) == 0


def _hammer(work, threads: int = 8) -> list:
    """Run ``work(i)`` on *threads* threads at once, switching threads as
    often as the interpreter allows; returns the exceptions raised."""
    barrier = threading.Barrier(threads)
    errors: list = []

    def run(i):
        try:
            barrier.wait(timeout=10)
            work(i)
        except Exception as error:  # reported by the caller's assert
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    return errors


class TestConcurrency:
    def test_concurrent_augmentation_mints_one_start_symbol(self):
        grammar = corpus.load("toy_java")
        expected = len(corpus.load("toy_java").augmented().symbols)
        copies: list = []
        assert _hammer(lambda i: copies.append(grammar.augmented())) == []
        assert len(copies) == 8 and all(copy is copies[0] for copy in copies)
        assert len(grammar.symbols) == expected

    def test_concurrent_resolves_keep_every_handle_whole(self):
        names = ["expr", "json", "lr0_demo", "dangling_else", "expr_prec"]
        expected = {
            name: grammar_fingerprint(corpus.load(name).augmented()) for name in names
        }
        handles = GrammarHandles(3)
        lookups: list = []

        def work(i):
            with instrument.profile() as profile:
                for step in range(40):
                    name = names[(i + step) % len(names)]
                    grammar, fingerprint = handles.resolve({"corpus": name})
                    assert fingerprint == expected[name] == grammar_fingerprint(grammar)
            lookups.append(
                profile.counters.get("service.handles.hits", 0)
                + profile.counters.get("service.handles.misses", 0)
            )

        assert _hammer(work) == []
        assert sum(lookups) == 8 * 40
        assert len(handles) == 3


class TestInProcessTier:
    def test_repeated_parses_read_the_grammar_once(self, tmp_path, counted_loads):
        with ServiceThread(cache_dir=str(tmp_path), hot_capacity=8) as thread:
            client = Client(thread.port)
            bodies = {client.post("/parse", PARSE).body for _ in range(6)}
            counters = _counters(client)
        assert bodies == {b'{"grammar":"expr","valid":true}\n'}
        assert counters["test.corpus_loads"] == 1
        assert counters["service.handles.misses"] == 1
        assert counters["service.handles.hits"] == 5
        assert counters["table.cache.hot_hits"] == 5

    def test_refusals_keep_their_bytes_and_are_not_memoized(self, tmp_path):
        with ServiceThread(cache_dir=str(tmp_path)) as thread:
            client = Client(thread.port)
            for payload, status, body in REFUSALS:
                for _ in range(2):
                    response = client.post("/parse", payload)
                    assert (response.status, response.body.decode()) == (status, body)
            assert len(thread.service.handles) == 0

    def test_names_are_echoed_per_handle(self, tmp_path):
        with ServiceThread(cache_dir=str(tmp_path)) as thread:
            client = Client(thread.port)
            names = [
                client.post("/compile", {"grammar": "S -> a", "name": name}).json()["grammar"]
                for name in ("first", "second", "first")
            ]
            assert len(thread.service.handles) == 2
        assert names == ["first", "second", "first"]

    def test_memo_evicts_at_hot_capacity(self, tmp_path):
        with ServiceThread(cache_dir=str(tmp_path), hot_capacity=2) as thread:
            client = Client(thread.port)
            for name in ("expr", "json", "lr0_demo", "expr"):
                assert client.post("/compile", {"corpus": name}).status == 200
            assert len(thread.service.handles) == 2
            counters = _counters(client)
        assert counters["service.handles.misses"] == 4
        assert counters["service.handles.evictions"] == 2
        assert "service.handles.hits" not in counters


@pytest.mark.skipif(not fork_available(), reason="process pool needs fork")
class TestPoolTier:
    def test_each_worker_reads_the_grammar_once(self, tmp_path, counted_loads):
        with ServiceThread(
            cache_dir=str(tmp_path), pool_workers=2
        ) as thread:
            client = Client(thread.port)
            bodies = {client.post("/parse", PARSE).body for _ in range(8)}
            counters = _counters(client)
        assert bodies == {b'{"grammar":"expr","valid":true}\n'}
        assert counters["test.corpus_loads"] == 2
        assert counters["service.handles.misses"] == 2
        assert counters["service.handles.hits"] == 6

    def test_refusals_keep_their_bytes(self, tmp_path):
        with ServiceThread(cache_dir=str(tmp_path), pool_workers=2) as thread:
            client = Client(thread.port)
            for payload, status, body in REFUSALS:
                for _ in range(2):
                    response = client.post("/parse", payload)
                    assert (response.status, response.body.decode()) == (status, body)


class TestQuickParse:
    """A short LR parse over a grammar whose handle and table are in
    memory runs on the event loop; everything else on the executor, with
    the same bytes either way."""

    @pytest.fixture
    def threads(self, monkeypatch):
        """Names of the threads ``parse_result`` ran on, in call order."""
        names: list = []
        real = app.parse_result

        def parse_result(*args, **kwargs):
            names.append(threading.current_thread().name)
            return real(*args, **kwargs)

        monkeypatch.setattr(app, "parse_result", parse_result)
        return names

    def test_warm_short_lr_parse_runs_on_the_loop(self, tmp_path, threads):
        with ServiceThread(cache_dir=str(tmp_path)) as thread:
            client = Client(thread.port)
            for _ in range(3):
                assert client.post("/parse", PARSE).status == 200
        assert threads[0].startswith("repro-req")  # cold: builds the table
        assert threads[1:] == ["repro-serve", "repro-serve"]

    def test_long_bodies_stay_on_the_executor(self, tmp_path, threads):
        payload = {"corpus": "expr", "input": " + ".join(["id"] * 400)}
        with ServiceThread(cache_dir=str(tmp_path)) as thread:
            client = Client(thread.port)
            for _ in range(3):
                assert client.post("/parse", payload).status == 200
        assert len(threads) == 3
        assert all(name.startswith("repro-req") for name in threads)

    def test_glr_under_the_cap_runs_on_the_loop(self, tmp_path, threads):
        with ServiceThread(cache_dir=str(tmp_path)) as thread:
            client = Client(thread.port)
            for _ in range(3):
                assert client.post("/parse", GLR_PARSE).json()["trees"] == 1
            counters = _counters(client)
        assert threads[0].startswith("repro-req")  # cold: builds the table
        assert threads[1:] == ["repro-serve", "repro-serve"]
        assert counters["service.parse.inline"] == 2
        assert counters["service.parse.executor"] == 1
        assert "service.parse.restarts" not in counters

    def test_glr_past_the_cap_restarts_on_the_executor(self, tmp_path, threads, monkeypatch):
        monkeypatch.setattr(app, "QUICK_GLR_SECONDS", 0)
        with ServiceThread(cache_dir=str(tmp_path)) as thread:
            client = Client(thread.port)
            for _ in range(3):
                assert client.post("/parse", GLR_PARSE).json()["trees"] == 1
            metrics = client.get("/metrics?format=json").json()
        counters = metrics["counters"]
        assert threads[0].startswith("repro-req")
        # Each warm request starts on the loop, trips the cap, reruns.
        assert threads[1::2] == ["repro-serve", "repro-serve"]
        assert all(name.startswith("repro-req") for name in threads[2::2])
        assert len(threads) == 5
        assert counters["service.parse.inline"] == 2
        assert counters["service.parse.restarts"] == 2
        assert counters["service.parse.executor"] == 3
        assert "service.budget_exceeded" not in counters
        # The abandoned attempts' hot lookups count nowhere: one hit per
        # rerun, in the cache section as in the instrument counter.
        assert metrics["cache"]["hot_hits"] == counters["table.cache.hot_hits"] == 2

    def test_abandoned_attempts_leave_no_counters(self, tmp_path, monkeypatch):
        """A restart counts what one executor run counts, a user budget
        that trips inline counts what it counts on the executor, and a
        cap alone publishes no budget counters."""
        requests = [
            (GLR_PARSE, {}),
            (GLR_PARSE, {"X-Repro-Max-Parse-Steps": "3"}),
            (GLR_PARSE, {"X-Repro-Timeout": "60"}),
        ]

        def counters(label: str) -> dict:
            with ServiceThread(cache_dir=str(tmp_path / label)) as thread:
                client = Client(thread.port)
                for _ in range(3):
                    for payload, headers in requests:
                        client.post("/parse", payload, headers)
                kept = ("budget.", "glr.", "parse.", "phase.", "service.budget_exceeded")
                return {
                    name: value for name, value in _counters(client).items()
                    if name.startswith(kept)
                }

        inline = counters("inline")
        assert inline["service.budget_exceeded"] == 3
        assert inline["budget.exceeded"] == 3
        monkeypatch.setattr(app, "QUICK_GLR_SECONDS", 0)
        assert counters("restart") == inline
        monkeypatch.setattr(app, "QUICK_PARSE_BYTES", -1)
        assert counters("executor") == inline

    @pytest.mark.parametrize(
        "options", [{"cache_dir": ""}, {"hot_capacity": 0}], ids=["no-store", "no-hot-lru"]
    )
    def test_no_hot_table_means_the_executor(self, tmp_path, threads, options):
        with ServiceThread(**{"cache_dir": str(tmp_path), **options}) as thread:
            client = Client(thread.port)
            for _ in range(3):
                assert client.post("/parse", PARSE).status == 200
        assert len(threads) == 3
        assert all(name.startswith("repro-req") for name in threads)

    def test_bytes_match_the_executor_path(self, tmp_path, monkeypatch):
        grammar = {"grammar": "S -> a S | b", "name": "g"}
        requests = [
            (PARSE, {}),
            ({"corpus": "expr", "input": "id + +"}, {}),
            ({"corpus": "expr", "input": "id * id", "tree": True}, {}),
            ({"corpus": "expr", "input": ["id", "+", "id"]}, {}),
            ({"corpus": "expr", "input": "id", "method": "slr1"}, {}),
            ({"corpus": "expr", "input": "id", "method": "nope"}, {}),
            ({"corpus": "expr"}, {}),
            ({"corpus": ["expr"], "input": "id"}, {}),
            (PARSE, {"X-Repro-Max-Parse-Steps": "2"}),
            (PARSE, {"X-Repro-Max-Tokens": "many"}),
            ({**grammar, "input": "a a b"}, {}),
            ({**grammar, "input": "a a"}, {}),
            (GLR_PARSE, {}),
            ({**GLR_PARSE, "input": "if if other else other"}, {}),
            ({**GLR_PARSE, "input": "if if other else other", "tree": True}, {}),
            ({**GLR_PARSE, "input": "if else"}, {}),
            ({**GLR_PARSE, "engine": "cyk"}, {}),
            ({"corpus": "mini_c", "input": MINI_C, "engine": "glr"}, {}),
            ({"corpus": "mini_c", "input": MINI_C, "engine": "glr", "tree": True}, {}),
            (GLR_PARSE, {"X-Repro-Max-Parse-Steps": "3"}),
            (GLR_PARSE, {"X-Repro-Max-Tokens": "2", "X-Repro-Timeout": "60"}),
            (GLR_PARSE, {"X-Repro-Timeout": "0"}),
            (GLR_PARSE, {"X-Repro-Timeout": "60"}),
        ]

        def serve(label: str) -> list:
            with ServiceThread(cache_dir=str(tmp_path / label)) as thread:
                client = Client(thread.port)
                answers = []
                for _ in range(2):  # cold, then warm
                    for payload, headers in requests:
                        response = client.post("/parse", payload, headers)
                        # A blown budget reports its wall clock; all else is fixed.
                        body = re.sub(rb'"elapsed_seconds":[^,]*,', b"", response.body)
                        answers.append((response.status, body))
                return answers

        quick = serve("quick")
        monkeypatch.setattr(app, "QUICK_GLR_SECONDS", 0)
        assert serve("restart") == quick
        monkeypatch.setattr(app, "QUICK_PARSE_BYTES", -1)
        assert serve("executor") == quick
        assert quick[0] == (200, b'{"grammar":"expr","valid":true}\n')
        assert (200, b'{"grammar":"dangling_else","trees":2,"valid":true}\n') in quick

    def test_is_hot_follows_the_hot_lru(self, tmp_path):
        grammar = corpus.load("expr").augmented()
        fingerprint = grammar_fingerprint(grammar)
        cache = TableCache(str(tmp_path), hot_capacity=1)
        assert not cache.is_hot("lalr1", fingerprint)
        cache.store(build_lalr_table(grammar), fingerprint)
        assert cache.is_hot("lalr1", fingerprint)
        assert not cache.is_hot("slr1", fingerprint)
        cold = TableCache(str(tmp_path))
        assert cold.load(grammar, "lalr1", fingerprint) is not None
        assert not cold.is_hot("lalr1", fingerprint)


def _set(rhs: str) -> dict:
    """toy_java's ``opt_extends -> extends ID``, rewritten to *rhs*."""
    return {"op": "set", "index": 6, "rhs": rhs}


#: One session's request stream over toy_java (178 states), with the
#: strategy each edit takes.
SESSION_STREAM = [
    ({"session": "s", "corpus": "toy_java"}, []),
    ({"session": "s", "edits": [_set("NUM ID")]}, ["splice"]),
    ({"session": "s", "edits": [_set("NUM ID")]}, ["noop"]),
    ({"session": "s", "edits": [_set("extends ID")]}, ["memo"]),
    ({"session": "s", "edits": [_set("ID")]}, ["fallback"]),
    # Falls back mid-way: the executor finishes the payload.
    (
        {"session": "s", "edits": [_set("NUM"), _set("STRING ID"), _set("void ID"),
                                   _set("void ID")]},
        ["splice", "fallback", "splice", "noop"],
    ),
    ({"session": "s", "edits": [{"op": "add", "lhs": "opt_extends", "rhs": "ID"}]},
     ["rebuild"]),
    # A refused edit after a splice: the splice stays, the answer is a 422.
    ({"session": "s", "edits": [_set("int ID"), {"op": "set", "index": 999}]}, []),
    ({"session": "s", "edits": "nope"}, []),
    ({"session": "s"}, []),
    ({"session": "never", "edits": []}, []),
]


def _strategy(report: str) -> str:
    strategy = report.split(" ", 1)[0]
    return "fallback" if strategy == "rebuild" and "(rhs)" in report else strategy


class TestQuickSessionEdits:
    """Edits to a small open session run on the event loop up to the
    first rebuild; the executor finishes the payload under the same
    lock, and the bytes never change."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """(step, thread name) of every session attempt and rebuild."""
        from repro.pipeline.session import AnalysisSession

        seen: list = []
        for step in ("attempt", "rebuild"):
            real = getattr(AnalysisSession, step)

            def record(self, arg, _real=real, _step=step):
                seen.append((_step, threading.current_thread().name))
                return _real(self, arg)

            monkeypatch.setattr(AnalysisSession, step, record)
        return seen

    @staticmethod
    def _serve(tmp_path, label: str):
        with ServiceThread(cache_dir=str(tmp_path / label)) as thread:
            client = Client(thread.port)
            answers = [
                (response.status, response.body)
                for response in (
                    client.post("/analyze", payload) for payload, _ in SESSION_STREAM
                )
            ]
            metrics = client.get("/metrics?format=json").json()
        return answers, metrics

    def test_bytes_match_the_executor_path(self, tmp_path, monkeypatch):
        inline, inline_metrics = self._serve(tmp_path, "inline")
        for (payload, strategies), (status, body) in zip(SESSION_STREAM, inline):
            if strategies:
                reports = json.loads(body)["updates"]
                assert [_strategy(r) for r in reports] == strategies, reports
        assert [status for status, _ in inline] == [
            200, 200, 200, 200, 200, 200, 200, 422, 400, 200, 404
        ]
        monkeypatch.setattr(app, "QUICK_SESSION_STATES", -1)
        executor, executor_metrics = self._serve(tmp_path, "executor")
        assert executor == inline
        assert executor_metrics["sessions"] == inline_metrics["sessions"]
        kept = ("phase.", "budget.", "parse.")
        assert {
            k: v for k, v in executor_metrics["counters"].items() if k.startswith(kept)
        } == {k: v for k, v in inline_metrics["counters"].items() if k.startswith(kept)}
        counters = inline_metrics["counters"]
        # Inline: every edit payload to the open session (8); on the
        # executor: the open, the status query, the unknown session and
        # the three payloads handed off at a rebuild.
        assert counters["service.analyze.inline"] == 8
        assert counters["service.analyze.handoffs"] == 3
        assert counters["service.analyze.executor"] == 3 + 3
        assert "service.analyze.inline" not in executor_metrics["counters"]

    def test_rebuilds_run_on_the_executor_and_splices_on_the_loop(self, tmp_path, calls):
        self._serve(tmp_path, "inline")
        expected = []
        for payload, strategies in SESSION_STREAM[1:7]:
            handed_off = False
            for strategy in strategies:
                expected.append(("attempt", "executor" if handed_off else "loop"))
                if strategy in ("fallback", "rebuild"):
                    expected.append(("rebuild", "executor"))
                    handed_off = True
        where = [
            (step, "loop" if name == "repro-serve" else "executor")
            for step, name in calls
        ]
        # No failed splice is attempted twice.
        assert where[: len(expected)] == expected

    def test_a_held_lock_sends_the_edit_to_the_executor(self, tmp_path, calls):
        with ServiceThread(cache_dir=str(tmp_path)) as thread:
            client = Client(thread.port)
            client.post("/analyze", SESSION_STREAM[0][0])
            lock = thread.service._session_lock("s")
            answers: list = []
            with lock:
                editor = threading.Thread(target=lambda: answers.append(
                    Client(thread.port).post("/analyze", SESSION_STREAM[1][0])
                ))
                editor.start()
                # The loop answers others while the edit waits for the lock.
                for _ in range(3):
                    assert client.get("/healthz").status == 200
                assert not answers
            editor.join(timeout=30)
            counters = _counters(client)
        assert answers[0].status == 200
        assert [name for step, name in calls] == [calls[0][1]]
        assert calls[0][1].startswith("repro-req")
        assert "service.analyze.inline" not in counters

    def test_long_edit_payloads_stay_on_the_executor(self, tmp_path, calls):
        """A body over :data:`QUICK_PARSE_BYTES` could list edits by the
        thousand, each a splice or memo restore: not bounded, so it never
        starts on the loop."""
        edits = [_set(rhs) for rhs in ("NUM ID", "extends ID") * 20]
        assert len(json.dumps({"session": "s", "edits": edits})) > app.QUICK_PARSE_BYTES
        with ServiceThread(cache_dir=str(tmp_path)) as thread:
            client = Client(thread.port)
            client.post("/analyze", SESSION_STREAM[0][0])
            response = client.post("/analyze", {"session": "s", "edits": edits})
            counters = _counters(client)
        reports = response.json()["updates"]
        assert [_strategy(r) for r in reports] == ["splice"] + ["memo"] * 39
        assert len(calls) == 40
        assert all(name.startswith("repro-req") for _, name in calls)
        assert "service.analyze.inline" not in counters
        assert counters["service.analyze.executor"] == 2

    def test_large_sessions_stay_on_the_executor(self, tmp_path, calls, monkeypatch):
        monkeypatch.setattr(app, "QUICK_SESSION_STATES", 150)  # toy_java: 177-178
        self._serve(tmp_path, "large")
        assert all(name.startswith("repro-req") for _, name in calls)


class TestTheLoopIsNeverHeld:
    E3 = {"grammar": "E -> E E E | a", "name": "e3", "engine": "glr"}

    def test_a_long_glr_parse_lets_other_clients_in(self, tmp_path, monkeypatch):
        """61 tokens of ``E -> E E E | a`` take ~0.4 s: far past the cap,
        in a body well under 1 KiB."""
        inline_seconds: list = []  # the loop thread's CPU time per attempt
        real = app.execute

        def execute(*args, **kwargs):
            started = time.thread_time()
            try:
                return real(*args, **kwargs)
            finally:
                if threading.current_thread().name == "repro-serve":
                    inline_seconds.append(time.thread_time() - started)

        monkeypatch.setattr(app, "execute", execute)
        slow = {**self.E3, "input": " ".join(["a"] * 61)}

        def serve(label: str):
            with ServiceThread(cache_dir=str(tmp_path / label)) as thread:
                client, probe = Client(thread.port), Client(thread.port)
                for _ in range(2):  # cold, then hot: the table is in memory
                    client.post("/parse", {**self.E3, "input": "a"})
                answers: list = []
                parser = threading.Thread(
                    target=lambda: answers.append(client.post("/parse", slow))
                )
                started = time.perf_counter()
                parser.start()
                waits = []
                while parser.is_alive():
                    asked = time.perf_counter()
                    assert probe.get("/healthz").status == 200
                    waits.append(time.perf_counter() - asked)
                parser.join()
                return answers[0], waits, time.perf_counter() - started

        inline, waits, parse_seconds = serve("inline")
        assert inline.status == 200 and inline.json()["trees"] == 1000
        # The loop held the slow parse for about one cap, not its ~0.4 s.
        assert len(inline_seconds) == 2 and inline_seconds[-1] < 0.02
        # Other clients got in all along.  Loose: each probe still waits
        # for the GIL that the executor's parse holds.
        assert len(waits) > 2 and max(waits) < parse_seconds / 2
        monkeypatch.setattr(app, "QUICK_PARSE_BYTES", -1)
        executor, _, _ = serve("executor")
        assert executor.body == inline.body
