"""The multi-core execution tier: pool serving must be invisible.

Two layers of contract, pinned here:

- **WorkerPool transport** — round-robin routing is deterministic
  (K requests over N workers land ceil/floor(K/N) each), typed errors
  (``HttpError``, ``BudgetExceeded``) cross the process boundary intact,
  unexpected worker exceptions surface as :class:`WorkerCrash` with the
  worker-side rendering, and a closed pool fails fast instead of
  hanging.
- **Served bit-identity** — an N-worker service answers every request
  byte-for-byte like the single-process service (budget 503s modulo the
  wall-clock ``elapsed_seconds`` field), under concurrent clients too,
  and ``/metrics`` accounts for *every* worker: per-worker served
  counters sum to the dispatch total and spread by at most one.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.budget import BudgetExceeded
from repro.service import (
    Client,
    HttpError,
    ServiceThread,
    WorkerCrash,
    WorkerPool,
    fork_available,
)

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process pool needs fork"
)

#: Stateless requests whose pooled answers must match single-process
#: byte-for-byte: success, taxonomy errors, and a budget 503.
MATRIX = [
    ("/compile", {"corpus": "expr"}, {}),
    ("/compile", {"corpus": "json", "method": "slr"}, {}),
    ("/compile", {"corpus": "no_such_grammar"}, {}),
    ("/compile", {"corpus": "toy_java"}, {"X-Repro-Max-States": "2"}),
    ("/parse", {"corpus": "expr", "input": ["id", "+", "id"], "tree": True}, {}),
    ("/parse", {"corpus": "expr", "input": ["id", "+"]}, {}),
    ("/parse", {"corpus": "expr", "input": ["id", "zzz"]}, {}),
    ("/parse", {"corpus": "dangling_else", "input": ["other"]}, {}),
    ("/parse", {"corpus": "dangling_else", "engine": "glr", "tree": True,
                "input": ["if", "if", "other", "else", "other"]}, {}),
    ("/parse", {"corpus": "expr", "engine": "turbo", "input": ["id"]}, {}),
    ("/analyze", {"corpus": "lalr_not_slr"}, {}),
    ("/fuzz", {"seed": 11, "count": 5, "wait": True}, {}),
]


def _comparable(response):
    """(status, body) with run-dependent wall-clock fields removed."""
    try:
        body = response.json()
    except Exception:
        return response.status, response.body
    if isinstance(body, dict):
        body.pop("elapsed_seconds", None)
    return response.status, json.dumps(body, sort_keys=True)


@pytest.fixture(scope="module")
def single(tmp_path_factory):
    cache = tmp_path_factory.mktemp("pool-single")
    with ServiceThread(cache_dir=str(cache), pool_workers=1) as thread:
        yield thread


@pytest.fixture(scope="module")
def pooled(tmp_path_factory):
    cache = tmp_path_factory.mktemp("pool-multi")
    with ServiceThread(cache_dir=str(cache), pool_workers=4) as thread:
        assert thread.service.pool is not None
        yield thread


class TestWorkerPoolTransport:
    def test_round_robin_spread_is_deterministic(self):
        pool = WorkerPool(3).start()
        try:
            futures = [
                pool.submit("parse", {"corpus": "expr", "input": ["id"]})
                for _ in range(8)
            ]
            results = [f.result(timeout=60) for f in futures]
            assert all(r["valid"] for r in results)
            stats = pool.stats()
            served = [stats[f"worker_{i}_served"] for i in range(3)]
            assert sorted(served) == [2, 3, 3]
            assert sum(served) == stats["completed"] == stats["dispatched"] == 8
            assert stats["crashed"] == 0 and stats["pending"] == 0
        finally:
            pool.close()

    def test_http_error_crosses_the_boundary_typed(self):
        pool = WorkerPool(1).start()
        try:
            future = pool.submit("compile", {"corpus": "no_such_grammar"})
            with pytest.raises(HttpError) as err:
                future.result(timeout=60)
            assert err.value.status == 422
            assert err.value.code == "unknown_corpus"
        finally:
            pool.close()

    def test_budget_exceeded_crosses_the_boundary_typed(self):
        pool = WorkerPool(1).start()
        try:
            future = pool.submit(
                "compile",
                {"corpus": "toy_java"},
                headers={"x-repro-max-states": "2"},
            )
            with pytest.raises(BudgetExceeded) as err:
                future.result(timeout=60)
            assert err.value.resource == "max_states"
            assert err.value.limit == 2
            assert err.value.progress["states"] >= 2
        finally:
            pool.close()

    def test_worker_exception_becomes_workercrash_with_rendering(self):
        pool = WorkerPool(1).start()
        try:
            future = pool.submit("fuzz", {"wait": True, "count": "xx"})
            with pytest.raises(WorkerCrash) as err:
                future.result(timeout=60)
            assert err.value.rendered.startswith("ValueError:")
            assert pool.stats()["crashed"] == 1
        finally:
            pool.close()

    def test_unknown_kind_is_a_typed_400(self):
        pool = WorkerPool(1).start()
        try:
            with pytest.raises(HttpError) as err:
                pool.submit("reticulate", {}).result(timeout=60)
            assert err.value.status == 400
            assert err.value.code == "unknown_job_kind"
        finally:
            pool.close()

    def test_counters_fold_back_per_worker(self):
        absorbed = []
        pool = WorkerPool(
            2, absorb=lambda wid, counters: absorbed.append((wid, counters))
        ).start()
        try:
            futures = [
                pool.submit("parse", {"corpus": "expr", "input": ["id", "+", "id"]})
                for _ in range(4)
            ]
            for future in futures:
                future.result(timeout=60)
        finally:
            pool.close()
        assert len(absorbed) == 4
        assert sorted({wid for wid, _ in absorbed}) == [0, 1]
        for _, counters in absorbed:
            assert counters.get("parse.tokens", 0) >= 3

    def test_submit_before_start_and_after_close_fail_fast(self):
        pool = WorkerPool(1)
        with pytest.raises(WorkerCrash):
            pool.submit("parse", {}).result(timeout=5)
        pool.start()
        assert pool.alive
        pool.close()
        pool.close()  # idempotent
        assert not pool.alive
        with pytest.raises(WorkerCrash):
            pool.submit("parse", {}).result(timeout=5)


class TestServedBitIdentity:
    @pytest.mark.parametrize(
        "path,payload,headers",
        MATRIX,
        ids=[f"{p}-{i}" for i, (p, _, _) in enumerate(MATRIX)],
    )
    def test_pooled_response_matches_single_process(
        self, single, pooled, path, payload, headers
    ):
        reference = Client(single.port).post(path, payload, headers=headers)
        answer = Client(pooled.port).post(path, payload, headers=headers)
        assert _comparable(answer) == _comparable(reference)

    def test_budget_503_keeps_retry_after(self, pooled):
        response = Client(pooled.port).post(
            "/compile", {"corpus": "toy_java"},
            headers={"X-Repro-Max-States": "2"},
        )
        assert response.status == 503
        assert response.headers.get("retry-after") == "1"
        assert response.json()["error"] == "budget_exceeded"

    def test_concurrent_clients_get_identical_bytes(self, single, pooled):
        payload = {"corpus": "expr", "input": ["(", "id", "+", "id", ")"],
                   "tree": True}
        reference = Client(single.port).post("/parse", payload).body
        results, errors = [], []

        def hammer():
            try:
                client = Client(pooled.port)
                for _ in range(6):
                    response = client.post("/parse", payload)
                    results.append((response.status, response.body))
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == []
        assert len(results) == 48
        assert set(results) == {(200, reference)}

    def test_async_compile_job_rides_the_pool(self, pooled):
        client = Client(pooled.port)
        submitted = client.post(
            "/compile", {"corpus": "mini_c", "async": True}
        )
        assert submitted.status == 202
        job_id = submitted.json()["job"]
        for _ in range(200):
            polled = client.get(f"/jobs/{job_id}").json()
            if polled["status"] in ("done", "failed"):
                break
        assert polled["status"] == "done"
        assert polled["result"]["states"] > 0


class TestPoolMetricsAccounting:
    def test_every_worker_is_counted(self, tmp_path):
        with ServiceThread(
            cache_dir=str(tmp_path / "cache"), pool_workers=4
        ) as thread:
            client = Client(thread.port)
            payload = {"corpus": "expr", "input": ["id", "*", "id"]}
            for _ in range(16):
                assert client.post("/parse", payload).status == 200

            metrics = client.get("/metrics?format=json").json()
            pool = metrics["pool"]
            served = [pool[f"worker_{i}_served"] for i in range(4)]
            assert all(count >= 1 for count in served)
            assert max(served) - min(served) <= 1
            assert sum(served) == pool["completed"] == pool["dispatched"] == 16
            assert pool["pending"] == 0 and pool["crashed"] == 0

            counters = metrics["counters"]
            per_worker = [
                counters.get(f"service.pool.worker.{i}.requests", 0)
                for i in range(4)
            ]
            assert sum(per_worker) == pool["completed"]
            assert counters["service.pool.dispatched"] == pool["dispatched"]
            # Worker-side instrument counters folded into the registry:
            # 16 parses of a 3-token sentence (plus EOF handling) must
            # aggregate exactly like the single-process tier would.
            assert counters["parse.tokens"] == 16 * 3

            text = client.get("/metrics").body.decode("utf-8")
            assert "repro_pool_worker_0_served" in text
            assert "repro_jobs_evicted 0" in text
