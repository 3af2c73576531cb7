"""The shared artifact store under fire: processes, threads, corruption.

The grammar service promotes :class:`~repro.tables.cache.TableCache`
to the shared table store — one instance hit by many worker threads,
and (through its on-disk layer) by batch-job worker *processes*.  These
tests pin the properties serving depends on:

- concurrent readers/writers across processes never observe a corrupt
  or torn entry, and every process computes the identical table;
- the thread-safe hot-table LRU counts hits and evictions exactly;
- an injected corrupt entry is silently evicted and rebuilt — at the
  cache layer and straight through a served ``/compile``;
- a full store (every save fails with ``ENOSPC``) serves the same bytes
  as an uncached service and counts each failed store.
"""

from __future__ import annotations

import errno
import hashlib
import json
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.grammars import corpus
from repro.service import Client, ServiceThread, canonical_json, compile_result
from repro.tables import TableCache, build_lalr_table

#: Deterministic grammars the hammering sweeps — includes expr_prec so
#: precedence-resolved conflict fidelity is exercised across processes.
NAMES = ["expr", "json", "lr0_demo", "unit_chain", "expr_prec"]


def table_digest(table) -> str:
    """A representation-independent fingerprint of a table's content."""
    payload = {
        "method": table.method,
        "actions": [
            {terminal.name: repr(action) for terminal, action in row.items()}
            for row in table.actions
        ],
        "gotos": [
            {nonterminal.name: target for nonterminal, target in row.items()}
            for row in table.gotos
        ],
        "summary": table.conflict_summary(),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def expected_digests() -> dict:
    return {
        name: table_digest(build_lalr_table(corpus.load(name, augment=True)))
        for name in NAMES
    }


def _hammer_worker(directory, rounds, barrier, results):
    """Subprocess body: interleaved load_or_build over the shared dir."""
    cache = TableCache(directory, hot_capacity=2)
    barrier.wait()  # maximise reader/writer overlap
    digests = {}
    for _ in range(rounds):
        for name in NAMES:
            grammar = corpus.load(name, augment=True)
            table = cache.load_or_build(grammar, "lalr1", build_lalr_table)
            digests[name] = table_digest(table)
    results.put((os.getpid(), digests, cache.stats()))


class TestMultiProcessHammering:
    def test_readers_and_writers_agree_bit_for_bit(self, tmp_path):
        directory = str(tmp_path / "store")
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(4)
        results = context.Queue()
        workers = [
            context.Process(
                target=_hammer_worker,
                args=(directory, 3, barrier, results),
            )
            for _ in range(4)
        ]
        for worker in workers:
            worker.start()
        collected = [results.get(timeout=180) for _ in workers]
        for worker in workers:
            worker.join(timeout=180)
            assert worker.exitcode == 0

        expected = expected_digests()
        for _pid, digests, stats in collected:
            assert digests == expected
            # A racing writer is invisible: entries are atomic (temp file
            # + os.replace), so nobody ever reads a torn artifact.
            assert stats["corrupt"] == 0

        # The shared directory holds exactly one intact entry per grammar.
        survivor = TableCache(directory)
        assert len(survivor.entry_paths()) == len(NAMES)
        for name in NAMES:
            grammar = corpus.load(name, augment=True)
            table = survivor.load(grammar, "lalr1")
            assert table is not None
            assert table_digest(table) == expected[name]
        assert survivor.stats()["corrupt"] == 0


class TestThreadedSingleInstance:
    def test_one_cache_many_threads(self, tmp_path):
        cache = TableCache(str(tmp_path / "store"), hot_capacity=4)
        expected = expected_digests()

        def hammer(round_index):
            out = {}
            for name in NAMES:
                grammar = corpus.load(name, augment=True)
                table = cache.load_or_build(grammar, "lalr1", build_lalr_table)
                out[name] = table_digest(table)
            return out

        rounds = 24
        with ThreadPoolExecutor(max_workers=8) as pool:
            for digests in pool.map(hammer, range(rounds)):
                assert digests == expected

        stats = cache.stats()
        assert stats["corrupt"] == 0
        # Accounting identity: every load attempt is exactly one of
        # hot hit / disk hit / miss.
        attempts = rounds * len(NAMES)
        assert stats["hot_hits"] + stats["hits"] + stats["misses"] == attempts
        # Only missed loads trigger builds/stores, and the LRU (capacity
        # 4, five keys) keeps forcing disk round-trips.
        assert stats["stores"] <= stats["misses"]
        assert stats["hot_hits"] > 0
        assert stats["hot_evictions"] > 0


class TestHotLruExactCounters:
    def test_hit_and_eviction_counts_are_exact(self, tmp_path):
        cache = TableCache(str(tmp_path / "store"), hot_capacity=2)
        a, b, c = (corpus.load(n, augment=True) for n in ("expr", "json", "lr0_demo"))

        build = build_lalr_table
        cache.load_or_build(a, "lalr1", build)  # miss, store      hot=[A]
        cache.load_or_build(a, "lalr1", build)  # hot hit          hot=[A]
        cache.load_or_build(b, "lalr1", build)  # miss, store      hot=[A,B]
        cache.load_or_build(c, "lalr1", build)  # miss, store      hot=[B,C] evict A
        cache.load_or_build(a, "lalr1", build)  # disk hit         hot=[C,A] evict B
        cache.load_or_build(a, "lalr1", build)  # hot hit          hot=[C,A]

        assert cache.stats() == {
            "hits": 1,
            "misses": 3,
            "stores": 3,
            "store_failures": 0,
            "corrupt": 0,
            "hot_hits": 2,
            "hot_evictions": 2,
        }

    def test_lru_order_is_recency_not_insertion(self, tmp_path):
        cache = TableCache(str(tmp_path / "store"), hot_capacity=2)
        a, b, c = (corpus.load(n, augment=True) for n in ("expr", "json", "lr0_demo"))
        build = build_lalr_table
        cache.load_or_build(a, "lalr1", build)  # hot=[A]
        cache.load_or_build(b, "lalr1", build)  # hot=[A,B]
        cache.load_or_build(a, "lalr1", build)  # hot hit, A refreshed: hot=[B,A]
        cache.load_or_build(c, "lalr1", build)  # evicts B, not A: hot=[A,C]
        hot_hits_before = cache.stats()["hot_hits"]
        cache.load_or_build(a, "lalr1", build)  # still hot
        assert cache.stats()["hot_hits"] == hot_hits_before + 1


class TestCorruptionRecovery:
    def test_injected_corruption_rebuilds_silently(self, tmp_path):
        directory = str(tmp_path / "store")
        cache = TableCache(directory)
        grammar = corpus.load("expr_prec", augment=True)
        first = cache.load_or_build(grammar, "lalr1", build_lalr_table)

        [entry] = cache.entry_paths()
        with open(entry, "wb") as handle:
            handle.write(b"\x00garbage" * 32)

        fresh = TableCache(directory)
        rebuilt = fresh.load_or_build(grammar, "lalr1", build_lalr_table)
        assert table_digest(rebuilt) == table_digest(first)
        assert fresh.stats()["corrupt"] == 1
        # The damaged entry was evicted and replaced by a loadable one.
        reread = TableCache(directory)
        assert reread.load(grammar, "lalr1") is not None
        assert reread.stats()["corrupt"] == 0

    def test_service_serves_identically_through_corruption(self, tmp_path):
        cache_dir = tmp_path / "service-store"
        expected = canonical_json(compile_result(corpus.load("expr_prec"), "lalr1"))
        with ServiceThread(cache_dir=str(cache_dir), hot_capacity=0) as thread:
            client = Client(thread.port)
            assert client.post("/compile", {"corpus": "expr_prec"}).body == expected
            for entry in thread.service.cache.entry_paths():
                with open(entry, "wb") as handle:
                    handle.write(b"not a table")
            # hot_capacity=0 forces the disk path: the corrupt entry is
            # hit, evicted, rebuilt — and the answer does not change.
            assert client.post("/compile", {"corpus": "expr_prec"}).body == expected
            counters = client.get("/metrics?format=json").json()["cache"]
            assert counters["corrupt"] == 1
            assert client.post("/compile", {"corpus": "expr_prec"}).body == expected


class TestFullStore:
    REQUESTS = [
        ("/compile", {"corpus": "expr_prec"}),
        ("/compile", {"corpus": "expr_prec"}),
        ("/parse", {"corpus": "expr", "input": "id + id * id", "tree": True}),
        ("/parse", {"corpus": "expr", "input": "id + +"}),
    ]

    def test_disk_full_serves_identically_and_counts(self, tmp_path, monkeypatch):
        with ServiceThread() as uncached:
            client = Client(uncached.port)
            expected = [client.post(path, body).body for path, body in self.REQUESTS]

        def disk_full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr("repro.tables.cache.save_binary_table", disk_full)
        with ServiceThread(cache_dir=str(tmp_path / "store")) as thread:
            client = Client(thread.port)
            served = [client.post(path, body).body for path, body in self.REQUESTS]
            assert served == expected
            metrics = client.get("/metrics?format=json").json()
        # Nothing was stored, so no hot entry either: every request
        # rebuilt its table and tried (and failed) to store it once.
        assert metrics["cache"]["stores"] == 0
        assert metrics["cache"]["store_failures"] == len(self.REQUESTS)
        assert metrics["counters"]["table.cache.store_failures"] == len(
            self.REQUESTS
        )
        assert thread.service.cache.entry_paths() == []
