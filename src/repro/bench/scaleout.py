"""The ``scaleout`` bench scenario: pooled serving vs the single-process
service.

Boots a real :class:`~repro.service.ServiceThread` twice — once
in-process (``pool_workers=1``) and once over a ``POOL_WORKERS``-worker
process pool sharing one ``bin`` artifact store — and drives the same
compile-then-parse recipe against both from ``CLIENTS`` concurrent
client threads (a grammar whose table keeps unresolved conflicts, such
as mini_c's dangling else, is parsed with ``"engine": "glr"``).  Its
entries are the two tiers, ``single`` and ``pool4``.  Reports aggregate
parse requests/second per tier — **informational**, they depend on the
runner and its core count (a single-core machine cannot show pool
speedup) — plus machine-independent counters that are pure functions
of the serving contract:

- ``parse_bytes_<grammar>`` — responses are canonical JSON, so the
  pooled tier must serve the *same bytes* the in-process tier does;
  ``bytes_identical`` is 1 only when every grammar matched;
- ``requests`` — the recipe itself;
- ``pool_every_worker_served`` / ``pool_spread`` — round-robin routing
  is deterministic, so K pooled requests land ceil/floor(K/N) per
  worker no matter how the clients raced.

Drift in them means the pooled tier stopped serving the same bytes as
the in-process tier, or the worker accounting changed::

    repro bench scaleout --baseline BENCH_scaleout.json
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from typing import Dict, List, Sequence, Tuple

from .service import grammar_tokens

DEFAULT_GRAMMARS = ("expr", "json", "mini_c", "toy_java")

#: Pool size of the scaled tier.
POOL_WORKERS = 4

#: Parse requests per grammar per tier.
REQUESTS = 24

#: Concurrent client threads.
CLIENTS = 8


def _drive(
    port: int, grammars: "Sequence[str]"
) -> "Tuple[Dict[str, bytes], float, int]":
    """Compile each grammar, then hammer /parse from ``CLIENTS`` threads.

    Returns (parse body per grammar, elapsed seconds, total parses).
    """
    from ..service import Client

    jobs: "List[Tuple[str, dict]]" = []
    for name in grammars:
        response = Client(port).post("/compile", {"corpus": name})
        assert response.status == 200, (name, response.status)
        payload = {"corpus": name, "input": grammar_tokens(name)}
        if not response.json()["deterministic"]:
            # The deterministic engine refuses a table with unresolved
            # conflicts (mini_c keeps the dangling else): parse with GLR.
            payload["engine"] = "glr"
        jobs.extend((name, payload) for _ in range(REQUESTS))

    bodies: "Dict[str, bytes]" = {}
    failures: "List[str]" = []
    lock = threading.Lock()
    cursor = iter(range(len(jobs)))

    def worker() -> None:
        client = Client(port)
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            name, payload = jobs[index]
            response = client.post("/parse", payload)
            with lock:
                if response.status != 200:
                    failures.append(f"{name}: HTTP {response.status}")
                else:
                    bodies[name] = response.body

    threads = [threading.Thread(target=worker) for _ in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    assert not failures, failures[:5]
    return bodies, elapsed, len(jobs)


def scaleout_snapshot(grammars: "Sequence[str]" = DEFAULT_GRAMMARS) -> Dict:
    """The ``scaleout`` scenario: one entry per serving tier."""
    from ..service import ServiceThread, fork_available

    tiers: "Dict[str, Dict]" = {}
    reference_bodies: "Dict[str, bytes]" = {}
    for label, pool_workers in (("single", 1), (f"pool{POOL_WORKERS}", POOL_WORKERS)):
        if pool_workers > 1 and not fork_available():
            tiers[label] = {"skipped": "the process pool needs fork"}
            break
        cache_dir = tempfile.mkdtemp(prefix="repro-bench-scaleout-")
        try:
            with ServiceThread(
                cache_dir=cache_dir, pool_workers=pool_workers
            ) as thread:
                bodies, elapsed, total = _drive(thread.port, grammars)
                counters: "Dict[str, int]" = {
                    "requests": total,
                    "workers": pool_workers,
                }
                for name in grammars:
                    counters[f"parse_bytes_{name}"] = len(bodies[name])
                if pool_workers == 1:
                    reference_bodies = bodies
                else:
                    counters["bytes_identical"] = int(
                        all(
                            bodies[name] == reference_bodies.get(name)
                            for name in grammars
                        )
                    )
                    from ..service import Client

                    pool = Client(thread.port).get(
                        "/metrics?format=json"
                    ).json()["pool"]
                    served = [
                        pool[f"worker_{i}_served"] for i in range(pool_workers)
                    ]
                    counters["pool_every_worker_served"] = int(
                        all(count >= 1 for count in served)
                    )
                    counters["pool_spread"] = max(served) - min(served)
                    counters["pool_accounted"] = int(
                        sum(served) == pool["completed"] == pool["dispatched"]
                    )
                tiers[label] = {
                    "counters": counters,
                    "throughput": {
                        "parse_requests_per_sec": total / elapsed
                        if elapsed > 0
                        else 0.0,
                        "elapsed_seconds": elapsed,
                    },
                }
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return tiers
