"""Fingerprint-keyed on-disk parse-table cache — the fast startup path.

Production parser generators never rebuild tables on every run; they
persist them and key the cache on a hash of the grammar, so application
startup is a single file read.  :class:`TableCache` is that layer:

- **Keying**: ``<method>-<grammar fingerprint><suffix>`` — a changed
  grammar changes the fingerprint, so stale entries are simply never
  looked up (and a fingerprint mismatch inside the file is treated as a
  miss too).  The suffix selects the **backend**: ``.json`` (readable)
  or ``.rtb`` (versioned binary, loaded without a JSON parse on
  the hot path).
- **Crash safety**: writes go through :func:`~repro.tables.serialize
  .save_table` (temp file + ``os.replace``), so the cache never holds a
  torn file.  Reads that hit a corrupt or truncated entry (a crash from
  a pre-atomic writer, disk damage, a concurrent truncation) count a
  ``table.cache.corrupt`` event, delete the bad entry, and **rebuild
  instead of crashing** — the cache is an accelerator, never a new
  failure mode.
- **Observability**: every hit/miss/corrupt/store event, and every
  failed store (disk full, read-only directory: the caller still gets
  its freshly built table), both increments instance counters and flows through :mod:`repro.core.instrument`, so a
  ``--profile`` run shows cache behaviour next to phase timings.

Tables with unresolved conflicts are cacheable like any other (JSON
format 4 / binary format 3 carry the full conflict log), so GLR-bound
tables get the same warm-start path as deterministic ones.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from ..core import instrument
from ..grammar.grammar import Grammar
from .binfmt import BINARY_SUFFIX, load_binary_table, save_binary_table
from .serialize import TableCacheError, grammar_fingerprint, load_table, save_table
from .table import ParseTable

__all__ = ["TableCache", "default_cache_dir"]

#: Cache storage backends mapped to their file suffix.  ``json`` is the
#: readable debugging-friendly format; ``bin`` is the versioned binary
#: artifact of :mod:`repro.tables.binfmt`, loaded as a verified copy.
BACKENDS = {"json": ".json", "bin": BINARY_SUFFIX}

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_TABLE_CACHE"


def default_cache_dir() -> str:
    """The cache directory examples and the CLI use by default:
    ``$REPRO_TABLE_CACHE`` if set, else ``<tmp>/repro-table-cache``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    import tempfile

    return os.path.join(tempfile.gettempdir(), "repro-table-cache")


class TableCache:
    """An on-disk cache of serialised parse tables for one directory.

    Args:
        directory: Where entries live; created lazily on first store.
        backend: ``"json"`` (default) or ``"bin"`` — which serialisation
            new entries use.  Loads dispatch on the *file* extension, so
            a cache directory can hold a mix of both.

    Attributes:
        hits / misses / corrupt / stores / store_failures: Event
            counters for this instance (the same events are emitted through the
            instrumentation layer as ``table.cache.*``).
    """

    def __init__(self, directory: str, backend: str = "json", hot_capacity: int = 0):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown cache backend {backend!r} (known: {sorted(BACKENDS)})"
            )
        self.directory = directory
        self.backend = backend
        self.suffix = BACKENDS[backend]
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.stores = 0
        self.store_failures = 0
        # Bounded in-memory LRU of hot ParseTable objects, keyed like the
        # disk entries.  Opt-in (capacity 0 = off): a deserialised table
        # is cheap next to a rebuild but the in-memory object bypasses
        # the disk entirely, which long-lived sessions want and one-shot
        # CLI runs don't need.
        self.hot_capacity = hot_capacity
        self._hot: "OrderedDict[Tuple[str, str], ParseTable]" = OrderedDict()
        # The disk layer is process-safe by construction (atomic
        # os.replace writes); the hot LRU is the only shared mutable
        # structure, so it gets its own lock — the grammar service hits
        # one cache instance from many worker threads at once.
        self._hot_lock = threading.Lock()
        self.hot_hits = 0
        self.hot_evictions = 0

    # -- keying --------------------------------------------------------

    def path_for(self, grammar: Grammar, method: str) -> str:
        """The cache file for *grammar*/*method* (may not exist)."""
        return self._path(method, grammar_fingerprint(grammar))

    def _path(self, method: str, fingerprint: str) -> str:
        # Entries shard into two-hex-char fingerprint-prefix
        # subdirectories so huge caches never produce one flat directory
        # with tens of thousands of entries (pathological on several
        # filesystems and unwieldy for humans).
        return os.path.join(
            self.directory,
            fingerprint[:2],
            f"{method}-{fingerprint[:32]}{self.suffix}",
        )

    # -- read / write ---------------------------------------------------

    def load(
        self, grammar: Grammar, method: str, fingerprint: Optional[str] = None
    ) -> Optional[ParseTable]:
        """The cached table, or None on miss/corruption (never raises
        for a damaged entry — it is deleted and counted instead).  A
        caller holding ``grammar_fingerprint(grammar)`` passes it."""
        if fingerprint is None:
            fingerprint = grammar_fingerprint(grammar)
        hot_key = (method, fingerprint)
        if self.hot_capacity:
            with self._hot_lock:
                table = self._hot.get(hot_key)
                if table is not None:
                    self._hot.move_to_end(hot_key)
                    self.hot_hits += 1
            if table is not None:
                instrument.count("table.cache.hot_hits")
                return table
        path = self._path(method, fingerprint)
        loader = load_binary_table if path.endswith(BINARY_SUFFIX) else load_table
        started = time.perf_counter_ns()
        with instrument.span("table.cache.load"):
            try:
                table = loader(path, grammar)
            except FileNotFoundError:
                self.misses += 1
                instrument.count("table.cache.misses")
                return None
            except (TableCacheError, OSError):
                self.corrupt += 1
                self.misses += 1
                instrument.count("table.cache.corrupt")
                instrument.count("table.cache.misses")
                self._evict(path)
                return None
        self.hits += 1
        instrument.count("table.cache.hits")
        if instrument.enabled():
            instrument.count("table.cache.load_ns", time.perf_counter_ns() - started)
            try:
                instrument.count("table.bytes", os.path.getsize(path))
            except OSError:
                pass
        self._hot_put(hot_key, table)
        return table

    def store(self, table: ParseTable, fingerprint: Optional[str] = None) -> bool:
        """Persist *table*; False (not an exception) when the disk
        write fails (*fingerprint* as for :meth:`load`)."""
        if fingerprint is None:
            fingerprint = grammar_fingerprint(table.grammar)
        path = self._path(table.method, fingerprint)
        with instrument.span("table.cache.store"):
            try:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                if path.endswith(BINARY_SUFFIX):
                    written = save_binary_table(table, path)
                else:
                    save_table(table, path)
                    written = os.path.getsize(path)
            except OSError:
                self.store_failures += 1
                instrument.count("table.cache.store_failures")
                return False
        self.stores += 1
        instrument.count("table.cache.stores")
        if instrument.enabled():
            instrument.count("table.bytes", written)
        self._hot_put((table.method, fingerprint), table)
        return True

    def is_hot(self, method: str, fingerprint: str) -> bool:
        """True when the hot LRU holds this table, so :meth:`load` would
        return it without touching the disk."""
        with self._hot_lock:
            return (method, fingerprint) in self._hot

    def _hot_put(self, key: "Tuple[str, str]", table: ParseTable) -> None:
        if not self.hot_capacity:
            return
        evictions = 0
        with self._hot_lock:
            self._hot[key] = table
            self._hot.move_to_end(key)
            while len(self._hot) > self.hot_capacity:
                self._hot.popitem(last=False)
                self.hot_evictions += 1
                evictions += 1
        for _ in range(evictions):
            instrument.count("table.cache.hot_evictions")

    def load_or_build(
        self,
        grammar: Grammar,
        method: str,
        builder: Callable[[Grammar], ParseTable],
        fingerprint: Optional[str] = None,
    ) -> ParseTable:
        """The cached table if present and intact, else ``builder(grammar)``
        (storing the fresh result for the next run)."""
        if fingerprint is None:
            fingerprint = grammar_fingerprint(grammar)
        cached = self.load(grammar, method, fingerprint)
        if cached is not None:
            return cached
        table = builder(grammar)
        self.store(table, fingerprint)
        return table

    # -- maintenance -----------------------------------------------------

    def entry_paths(self) -> "List[str]":
        """Every entry file currently on disk, shard by shard — how tests
        assert an aborted build stored nothing."""
        suffixes = tuple(BACKENDS.values())
        try:
            names = sorted(os.listdir(self.directory))
        except (FileNotFoundError, NotADirectoryError):
            return []
        paths: "List[str]" = []
        for name in names:
            shard = os.path.join(self.directory, name)
            if len(name) == 2 and os.path.isdir(shard):
                paths.extend(
                    os.path.join(shard, entry)
                    for entry in sorted(os.listdir(shard))
                    if entry.endswith(suffixes)
                )
        return paths

    def clear(self) -> int:
        """Delete every cache entry, its emptied shard directory and the
        hot LRU; returns how many files were removed."""
        with self._hot_lock:
            self._hot.clear()
        paths = self.entry_paths()
        for path in paths:
            self._evict(path)
        for shard in {os.path.dirname(path) for path in paths}:
            try:
                os.rmdir(shard)
            except OSError:
                pass
        return len(paths)

    def stats(self) -> Dict[str, int]:
        stats = {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "stores": self.stores,
            "store_failures": self.store_failures,
        }
        if self.hot_capacity:
            stats["hot_hits"] = self.hot_hits
            stats["hot_evictions"] = self.hot_evictions
        return stats

    @staticmethod
    def _evict(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass
