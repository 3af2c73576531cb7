"""The service's functional contract over the whole grammar corpus.

One live server (a :class:`ServiceThread` on an ephemeral port, backed
by a real on-disk table cache) serves every test in this module; the
clients speak actual HTTP.  The load-bearing assertion throughout is
**bit-identity**: a served response body must equal
``canonical_json(<pure result function>(...))`` byte for byte — for
every corpus grammar, and under concurrent clients.  The service path
additionally round-trips tables through the shared artifact store, so
identity here also proves cache serialization fidelity.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.derive import SentenceGenerator
from repro.grammars import corpus
from repro.service import (
    Client,
    ServiceThread,
    analyze_result,
    canonical_json,
    compile_result,
    parse_result,
)

CORPUS = corpus.names()


def corpus_tokens(name: str):
    """A deterministic input for *name*: its seed-0 generated sentence,
    or a single ``id`` token for grammars the generator cannot reach."""
    grammar = corpus.load(name)
    sentences = SentenceGenerator(grammar, seed=0).sentences(1, budget=30)
    if sentences:
        return [symbol.name for symbol in sentences[0]]
    return ["id"]


def _engine_for(name: str) -> str:
    """glr for conflicted corpus grammars (the lr engine refuses them)."""
    from repro.tables import build_lalr_table

    table = build_lalr_table(corpus.load(name).augmented())
    return "lr" if table.is_deterministic else "glr"


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("service-cache")
    with ServiceThread(cache_dir=str(cache_dir), hot_capacity=8) as thread:
        yield thread


@pytest.fixture(scope="module")
def client(service):
    return Client(service.port)


def poll_job(client, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        body = client.get(f"/jobs/{job_id}").json()
        if body["status"] in ("done", "failed"):
            return body
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


class TestEndpointsMatchPipeline:
    """Every corpus grammar, every synchronous endpoint, byte for byte."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_compile_is_bit_identical(self, client, name):
        response = client.post("/compile", {"corpus": name})
        assert response.status == 200
        expected = canonical_json(compile_result(corpus.load(name), "lalr1"))
        assert response.body == expected

    @pytest.mark.parametrize("name", CORPUS)
    def test_parse_is_bit_identical(self, client, name):
        # Conflicted grammars are served by the GLR engine (the lr
        # engine 422s on them — pinned below); deterministic ones by
        # the default deterministic hot loop.
        engine = _engine_for(name)
        tokens = corpus_tokens(name)
        response = client.post(
            "/parse",
            {"corpus": name, "input": tokens, "tree": True, "engine": engine},
        )
        assert response.status == 200
        expected = canonical_json(
            parse_result(
                corpus.load(name), tokens, "lalr1", tree=True, engine=engine
            )
        )
        assert response.body == expected

    @pytest.mark.parametrize("name", CORPUS)
    def test_glr_engine_serves_every_grammar(self, client, name):
        tokens = corpus_tokens(name)
        response = client.post(
            "/parse", {"corpus": name, "input": tokens, "engine": "glr"}
        )
        assert response.status == 200
        body = response.json()
        assert body["valid"] in (True, False)
        if body["valid"]:
            assert body["trees"] >= 1

    def test_lr_engine_rejects_conflicted_table(self, client):
        response = client.post(
            "/parse", {"corpus": "dangling_else", "input": ["other"]}
        )
        assert response.status == 422
        assert response.json()["error"] == "conflicted_table"

    def test_unknown_engine_rejected(self, client):
        response = client.post(
            "/parse",
            {"corpus": "expr", "input": ["id"], "engine": "turbo"},
        )
        assert response.status == 400
        assert response.json()["error"] == "bad_engine"

    @pytest.mark.parametrize("name", CORPUS)
    def test_analyze_is_bit_identical(self, client, name):
        response = client.post("/analyze", {"corpus": name})
        assert response.status == 200
        expected = canonical_json(analyze_result(corpus.load(name)))
        assert response.body == expected

    def test_compile_methods_differ_but_each_matches(self, client):
        for method in ("lr0", "slr1", "lalr1", "clr1"):
            response = client.post("/compile", {"corpus": "expr", "method": method})
            expected = canonical_json(compile_result(corpus.load("expr"), method))
            assert response.body == expected

    def test_inline_grammar_text_matches_corpus(self, client):
        entry = corpus.entry("expr")
        response = client.post(
            "/compile", {"grammar": entry.text, "name": "expr"}
        )
        assert response.body == canonical_json(
            compile_result(corpus.load("expr"), "lalr1")
        )


class TestConcurrentClients:
    """Many clients, interleaved endpoints — answers never change."""

    def test_concurrent_compiles_are_bit_identical(self, service):
        names = CORPUS * 3
        expected = {
            name: canonical_json(compile_result(corpus.load(name), "lalr1"))
            for name in CORPUS
        }

        def hit(name):
            response = Client(service.port).post("/compile", {"corpus": name})
            return name, response.status, response.body

        with ThreadPoolExecutor(max_workers=8) as pool:
            for name, status, body in pool.map(hit, names):
                assert status == 200
                assert body == expected[name]

    def test_mixed_endpoints_under_concurrency(self, service):
        picks = ["expr", "json", "dangling_else", "lr0_demo", "mini_pascal"]
        tokens = {name: corpus_tokens(name) for name in picks}
        engines = {name: _engine_for(name) for name in picks}
        expected = {}
        for name in picks:
            grammar = corpus.load(name)
            expected[("compile", name)] = canonical_json(
                compile_result(grammar, "lalr1")
            )
            expected[("parse", name)] = canonical_json(
                parse_result(
                    corpus.load(name), tokens[name], "lalr1",
                    engine=engines[name],
                )
            )

        def hit(task):
            kind, name = task
            client = Client(service.port)
            if kind == "compile":
                response = client.post("/compile", {"corpus": name})
            else:
                response = client.post(
                    "/parse",
                    {"corpus": name, "input": tokens[name],
                     "engine": engines[name]},
                )
            return task, response.body

        tasks = [(kind, name) for name in picks for kind in ("compile", "parse")] * 2
        with ThreadPoolExecutor(max_workers=6) as pool:
            for task, body in pool.map(hit, tasks):
                assert body == expected[task]


class TestJobsAndSessions:
    def test_fuzz_job_roundtrip(self, client):
        response = client.post("/fuzz", {"seed": 11, "count": 5})
        assert response.status == 202
        submitted = response.json()
        assert submitted["status"] in ("queued", "running", "done")
        body = poll_job(client, submitted["job"])
        assert body["status"] == "done"
        assert body["result"]["grammars_run"] == 5
        assert body["result"]["seed"] == 11

    def test_batch_job_graduates_repro_batch(self, client):
        specs = ["corpus:expr", "corpus:dangling_else", {"grammar": "S -> ;"}]
        response = client.post("/compile", {"batch": specs, "workers": 2})
        assert response.status == 202
        body = poll_job(client, response.json()["job"])
        result = body["result"]
        assert result["total"] == 3
        assert result["errors"] == 1  # the unparsable inline grammar
        assert result["conflicted"] == 1  # dangling_else
        assert result["clean"] == 1
        assert result["ok"] is False

    def test_async_compile_job(self, client):
        response = client.post("/compile", {"corpus": "json", "async": True})
        assert response.status == 202
        body = poll_job(client, response.json()["job"])
        assert body["status"] == "done"
        assert body["result"] == compile_result(corpus.load("json"), "lalr1")

    def test_unknown_job_is_404(self, client):
        response = client.get("/jobs/job-999999")
        assert response.status == 404
        assert response.json()["error"] == "unknown_job"

    def test_session_affinity_takes_incremental_paths(self, client):
        entry = corpus.entry("expr")
        opened = client.post(
            "/analyze", {"session": "affinity", "grammar": entry.text}
        )
        assert opened.status == 200
        # E -> E * T is the canonical spliceable edit on the expression
        # grammar (production 1 of the augmented grammar).
        edit = {"op": "set", "index": 1, "rhs": "E * T"}
        first = client.post(
            "/analyze", {"session": "affinity", "edits": [edit]}
        ).json()
        assert first["strategies"]["splice"] == 1
        assert len(first["updates"]) == 1
        # The identical edit again: the session sees an identical grammar.
        second = client.post(
            "/analyze", {"session": "affinity", "edits": [edit]}
        ).json()
        assert second["strategies"]["noop"] == 1
        assert second["strategies"]["splice"] == 1

    @pytest.mark.parametrize(
        "edit",
        [
            {"op": "set", "index": -7, "rhs": "id"},
            {"op": "set", "index": -1, "rhs": "id"},
            {"op": "set", "index": 7, "rhs": "id"},
            {"op": "set", "index": 0, "rhs": "E"},
            {"op": "remove", "index": -7},
            {"op": "remove", "index": -1},
        ],
    )
    def test_out_of_range_edit_is_422(self, client, edit):
        # -7 is production 0 of the 7-rule augmented expression grammar:
        # it must be refused like index 0, not re-augment the grammar.
        opened = client.post(
            "/analyze", {"session": "bounds", "corpus": "expr"}
        ).json()
        response = client.post(
            "/analyze", {"session": "bounds", "edits": [edit]}
        )
        assert response.status == 422
        assert response.json()["error"] == "bad_edit"
        after = client.post("/analyze", {"session": "bounds"}).json()
        assert after["states"] == opened["states"] == 13
        assert after["strategies"] == opened["strategies"]

    def test_unknown_session_is_404(self, client):
        response = client.post("/analyze", {"session": "never-opened"})
        assert response.status == 404
        assert response.json()["error"] == "unknown_session"


class TestMetricsAndErrors:
    def test_metrics_text_exposes_instrument_counters(self, client):
        client.post("/compile", {"corpus": "expr"})
        text = client.get("/metrics").body.decode("utf-8")
        lines = dict(
            line.rsplit(" ", 1) for line in text.strip().splitlines()
        )
        assert int(lines["repro_service_requests"]) > 0
        # Pipeline-phase counters flow through per-request profiling.
        assert "repro_lr0_states" in lines
        assert "repro_cache_stores" in lines

    def test_metrics_json_sections(self, client):
        client.post("/compile", {"corpus": "expr"})
        body = client.get("/metrics?format=json").json()
        assert set(body) >= {"counters", "cache", "jobs", "sessions"}
        assert body["cache"]["stores"] >= 1
        assert body["jobs"]["capacity"] == 16
        assert body["counters"]["service.requests"] >= 1

    def test_metrics_requests_counter_is_monotonic(self, client):
        before = client.get("/metrics?format=json").json()["counters"]
        client.get("/healthz")
        after = client.get("/metrics?format=json").json()["counters"]
        assert after["service.requests"] >= before["service.requests"] + 2

    def test_repeat_compile_hits_the_hot_lru(self, client):
        for _ in range(3):
            client.post("/compile", {"corpus": "lvalue"})
        counters = client.get("/metrics?format=json").json()["cache"]
        assert counters["hot_hits"] >= 2

    def test_unknown_endpoint_is_404(self, client):
        response = client.get("/definitely-not-an-endpoint")
        assert response.status == 404
        assert response.json()["error"] == "not_found"

    def test_wrong_method_is_405(self, client):
        assert client.get("/compile").status == 405
        assert client.post("/metrics", {}).status == 405

    def test_bad_json_is_400(self, client):
        response = client.request(
            "POST", "/compile", None, {"Content-Type": "application/json"}
        )
        # empty body parses as {} -> missing grammar, still a clean 400
        assert response.status == 400
        assert response.json()["error"] == "missing_grammar"

    def test_unknown_corpus_is_422(self, client):
        response = client.post("/compile", {"corpus": "no-such-grammar"})
        assert response.status == 422
        assert response.json()["error"] == "unknown_corpus"

    def test_unparsable_grammar_is_422(self, client):
        response = client.post("/compile", {"grammar": "S -> ;;; ->"})
        assert response.status == 422
        assert response.json()["error"] == "grammar_error"

    def test_healthz_and_index(self, client):
        assert client.get("/healthz").json() == {"ok": True}
        index = client.get("/").json()
        assert "POST /compile" in index["endpoints"]
