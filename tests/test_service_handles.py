"""The grammar-handle memo: each served grammar is resolved once per process.

A warm request must go from its payload to the hot table without reading,
augmenting or hashing its grammar again, on both serving tiers, while the
answers (and the refusals) stay byte-identical to a fresh resolution.
"""

from __future__ import annotations

import re
import sys
import threading

import pytest

from repro.core import instrument
from repro.grammar.fingerprint import grammar_fingerprint
from repro.grammars import corpus
from repro.service import Client, HttpError, ServiceThread, fork_available
from repro.service import app
from repro.service.app import GrammarHandles
from repro.tables import TableCache, build_lalr_table

PARSE = {"corpus": "expr", "input": "id + id * id"}

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
            cache_dir=str(tmp_path), cache_backend="bin", pool_workers=2
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

    @pytest.mark.parametrize(
        "payload",
        [
            {"corpus": "dangling_else", "input": "if e then s", "engine": "glr"},
            {"corpus": "expr", "input": " + ".join(["id"] * 400)},
        ],
        ids=["glr", "long-body"],
    )
    def test_glr_and_long_bodies_stay_on_the_executor(self, tmp_path, threads, payload):
        with ServiceThread(cache_dir=str(tmp_path)) as thread:
            client = Client(thread.port)
            for _ in range(3):
                assert client.post("/parse", payload).status == 200
        assert len(threads) == 3
        assert all(name.startswith("repro-req") for name in threads)

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
        monkeypatch.setattr(app, "QUICK_PARSE_BYTES", -1)
        assert serve("executor") == quick
        assert quick[0] == (200, b'{"grammar":"expr","valid":true}\n')

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
