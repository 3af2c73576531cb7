"""The ``service`` bench scenario: request latency over a live server.

Boots a real :class:`~repro.service.ServiceThread` on an ephemeral port
(fresh on-disk table cache), then, per grammar: one ``/compile`` to warm
the artifact store, then ``PARSE_REQUESTS`` ``/parse`` requests whose
tables come off the hot LRU.  Reports p50/p95 request latency —
**informational**, they depend on the runner — and a set of
machine-independent counters that are pure functions of the grammar
and the serving contract:

- ``states``, ``compile_bytes``, ``parse_bytes`` — the served answers'
  shape (bytes are exact: responses are canonical JSON);
- ``parse_requests``, ``parse_valid`` — the recipe itself;
- ``stores_delta`` (1: every table is cacheable, conflicted ones
  included since JSON format 4) and ``hot_hits_delta`` (one per
  cached-table parse) — the cache flow a served grammar must follow.

Drift in them means the serving contract changed::

    repro bench service --baseline BENCH_service.json
"""

from __future__ import annotations

import shutil
import tempfile
import time
from typing import Dict, List, Sequence, Tuple

from ..analysis.derive import SentenceGenerator
from ..grammars import corpus

#: Default grammars: a spread of table sizes plus a conflicted one
#: (dangling_else), served by the GLR engine off its cached
#: conflict-carrying artifact.
DEFAULT_GRAMMARS = ("expr", "json", "dangling_else", "mini_pascal_det", "toy_java")

#: Timed ``/parse`` requests per grammar.
PARSE_REQUESTS = 16


def _percentile(samples: "List[float]", fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _timed(client, method: str, path: str, payload) -> "Tuple[object, float]":
    started = time.perf_counter()
    response = client.request(method, path, payload)
    return response, time.perf_counter() - started


def grammar_tokens(name: str) -> "List[str]":
    """The deterministic parse input: the seed-0 generated sentence."""
    grammar = corpus.load(name)
    sentences = SentenceGenerator(grammar, seed=0).sentences(1, budget=30)
    if sentences:
        return [symbol.name for symbol in sentences[0]]
    return ["id"]


def service_snapshot(names: "Sequence[str]" = DEFAULT_GRAMMARS) -> Dict:
    """The ``service`` scenario: boot a service, drive the
    compile-then-parse recipe, one entry per grammar."""
    from ..service import Client, ServiceThread

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-service-")
    grammars: "Dict[str, Dict]" = {}
    try:
        with ServiceThread(cache_dir=cache_dir, hot_capacity=32) as thread:
            client = Client(thread.port)

            def cache_stats() -> Dict:
                return client.get("/metrics?format=json").json()["cache"]

            for name in names:
                before = cache_stats()
                compile_response, compile_seconds = _timed(
                    client, "POST", "/compile", {"corpus": name}
                )
                assert compile_response.status == 200, name
                compiled = compile_response.json()

                # The lr engine 422s on conflicted tables; serve those
                # with the GLR engine, like a real client would.
                engine = "lr" if compiled["deterministic"] else "glr"
                tokens = grammar_tokens(name)
                latencies: "List[float]" = []
                parse_bytes = 0
                parse_valid = None
                for _ in range(PARSE_REQUESTS):
                    response, seconds = _timed(
                        client, "POST", "/parse",
                        {"corpus": name, "input": tokens, "engine": engine},
                    )
                    assert response.status == 200, name
                    latencies.append(seconds)
                    parse_bytes = len(response.body)
                    parse_valid = response.json()["valid"]
                after = cache_stats()

                grammars[name] = {
                    "counters": {
                        "states": compiled["states"],
                        "compile_bytes": len(compile_response.body),
                        "parse_bytes": parse_bytes,
                        "parse_requests": PARSE_REQUESTS,
                        "parse_valid": int(bool(parse_valid)),
                        "stores_delta": after["stores"] - before["stores"],
                        "hot_hits_delta": after["hot_hits"] - before["hot_hits"],
                    },
                    "latency_ms": {
                        "compile_cold": compile_seconds * 1e3,
                        "parse_p50": _percentile(latencies, 0.50) * 1e3,
                        "parse_p95": _percentile(latencies, 0.95) * 1e3,
                    },
                }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return grammars
