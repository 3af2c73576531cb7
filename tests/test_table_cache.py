"""Unit tests: the fingerprint-keyed on-disk table cache."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.core.instrument import profile
from repro.grammar import load_grammar
from repro.grammars import corpus
from repro.tables import TableCache, build_lalr_table, build_slr_table, default_cache_dir
from repro.tables.cache import CACHE_DIR_ENV


@pytest.fixture
def grammar():
    return corpus.load("expr", augment=True)


@pytest.fixture
def cache(tmp_path):
    return TableCache(str(tmp_path / "cache"))


def _build_calls(builder):
    """Wrap *builder* so tests can count real (non-cached) builds."""
    calls = []

    def wrapped(grammar):
        calls.append(grammar.name)
        return builder(grammar)

    return wrapped, calls


class TestRoundTrip:
    def test_first_build_misses_then_stores(self, grammar, cache):
        builder, calls = _build_calls(build_lalr_table)
        table = cache.load_or_build(grammar, "lalr1", builder)
        assert calls == [grammar.name]
        assert table.is_deterministic
        assert cache.stats() == {
            "hits": 0, "misses": 1, "corrupt": 0, "stores": 1, "store_failures": 0,
        }
        assert os.path.exists(cache.path_for(grammar, "lalr1"))

    def test_second_build_hits(self, grammar, cache):
        builder, calls = _build_calls(build_lalr_table)
        first = cache.load_or_build(grammar, "lalr1", builder)
        second = cache.load_or_build(grammar, "lalr1", builder)
        assert calls == [grammar.name]  # builder ran exactly once
        assert cache.hits == 1
        assert second.n_states == first.n_states
        assert second.actions == first.actions
        assert second.gotos == first.gotos

    def test_methods_are_keyed_separately(self, grammar, cache):
        lalr = cache.load_or_build(grammar, "lalr1", build_lalr_table)
        slr = cache.load_or_build(grammar, "slr1", build_slr_table)
        assert cache.hits == 0 and cache.stores == 2
        assert lalr.method == "lalr1" and slr.method == "slr1"

    def test_hit_emits_instrument_counter(self, grammar, cache):
        cache.load_or_build(grammar, "lalr1", build_lalr_table)
        with profile() as collector:
            cache.load_or_build(grammar, "lalr1", build_lalr_table)
        assert collector.counters["table.cache.hits"] == 1
        assert "table.cache.load" in collector.phase_totals()


class TestInvalidation:
    def test_fingerprint_mismatch_rebuilds_cleanly(self, cache):
        before = load_grammar(
            "%token a b\n%start S\n%%\nS : a b ;\n", name="g"
        ).augmented()
        after = load_grammar(
            "%token a b c\n%start S\n%%\nS : a b | a c ;\n", name="g"
        ).augmented()
        builder, calls = _build_calls(build_lalr_table)
        cache.load_or_build(before, "lalr1", builder)
        table = cache.load_or_build(after, "lalr1", builder)
        # Same grammar name, different content: distinct keys, no false hit.
        assert len(calls) == 2
        assert cache.hits == 0
        assert table.is_deterministic

    def test_embedded_fingerprint_mismatch_is_corruption(self, grammar, cache):
        # Force a key collision by renaming another grammar's entry onto
        # this grammar's path: the payload's own fingerprint must reject it.
        other = corpus.load("json", augment=True)
        cache.load_or_build(other, "lalr1", build_lalr_table)
        target = cache.path_for(grammar, "lalr1")
        os.makedirs(os.path.dirname(target), exist_ok=True)
        os.replace(cache.path_for(other, "lalr1"), target)
        table = cache.load_or_build(grammar, "lalr1", build_lalr_table)
        assert cache.corrupt == 1
        assert table.grammar.name == grammar.name

    def test_corrupt_file_rebuilds_and_evicts(self, grammar, cache):
        builder, calls = _build_calls(build_lalr_table)
        reference = cache.load_or_build(grammar, "lalr1", builder)
        path = cache.path_for(grammar, "lalr1")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"format": 1, "acti')  # torn mid-write
        table = cache.load_or_build(grammar, "lalr1", builder)
        assert len(calls) == 2  # silent rebuild, no exception
        assert table.actions == reference.actions
        assert cache.stats() == {
            "hits": 0, "misses": 2, "corrupt": 1, "stores": 2, "store_failures": 0,
        }
        # The damaged entry was replaced by the fresh store: next run hits.
        cache.load_or_build(grammar, "lalr1", builder)
        assert cache.hits == 1 and len(calls) == 2

    def test_corrupt_emits_instrument_counter(self, grammar, cache):
        cache.load_or_build(grammar, "lalr1", build_lalr_table)
        path = cache.path_for(grammar, "lalr1")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json at all")
        with profile() as collector:
            cache.load_or_build(grammar, "lalr1", build_lalr_table)
        assert collector.counters["table.cache.corrupt"] == 1
        assert collector.counters["table.cache.misses"] == 1

    def test_wrong_payload_type_is_corruption(self, grammar, cache):
        cache.load_or_build(grammar, "lalr1", build_lalr_table)
        path = cache.path_for(grammar, "lalr1")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(["not", "a", "table"], handle)
        table = cache.load_or_build(grammar, "lalr1", build_lalr_table)
        assert cache.corrupt == 1
        assert table.is_deterministic


class TestStore:
    def test_conflicted_table_is_cached_with_its_conflicts(self, cache):
        # Binary format 3 carries the unresolved-conflict section, so
        # conflicted tables are cacheable like any other.
        ambiguous = load_grammar(
            "%token a\n%start E\n%%\nE : E E | a ;\n", name="amb"
        ).augmented()
        table = build_lalr_table(ambiguous)
        assert table.unresolved_conflicts
        assert cache.store(table) is True
        assert cache.stores == 1
        assert os.path.exists(cache.path_for(ambiguous, "lalr1"))
        loaded = cache.load(ambiguous, "lalr1")
        assert not loaded.is_deterministic
        assert len(loaded.unresolved_conflicts) == len(table.unresolved_conflicts)

    def test_load_or_build_hits_for_conflicted_table(self, cache):
        ambiguous = load_grammar(
            "%token a\n%start E\n%%\nE : E E | a ;\n", name="amb"
        ).augmented()
        builder, calls = _build_calls(build_lalr_table)
        cache.load_or_build(ambiguous, "lalr1", builder)
        cache.load_or_build(ambiguous, "lalr1", builder)
        assert len(calls) == 1  # second call served from disk
        assert cache.hits == 1

    def test_unusable_directory_never_raises(self, grammar, tmp_path):
        # The configured directory is an existing *file*: loads read
        # through it (corrupt path) and stores fail soft — the cache
        # must degrade to a plain rebuild, never a crash.
        blocker = tmp_path / "notadir"
        blocker.write_text("", encoding="utf-8")
        cache = TableCache(str(blocker))
        table = cache.load_or_build(grammar, "lalr1", build_lalr_table)
        assert table.is_deterministic
        assert cache.stores == 0
        assert cache.store_failures == 1

    def test_clear_removes_entries(self, grammar, cache):
        cache.load_or_build(grammar, "lalr1", build_lalr_table)
        assert cache.clear() == 1
        assert os.listdir(cache.directory) == []  # emptied shards go too
        assert cache.clear() == 0  # idempotent, also fine on missing dir


class TestBinaryBackend:
    """The store's one format: .rtb artifacts loaded as a verified copy,
    with a damaged entry evicted and rebuilt."""

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="backend"):
            TableCache(str(tmp_path), backend="xml")

    def test_round_trip_through_binary_entry(self, grammar, cache):
        from repro.tables.binfmt import BINARY_SUFFIX

        builder, calls = _build_calls(build_lalr_table)
        first = cache.load_or_build(grammar, "lalr1", builder)
        path = cache.path_for(grammar, "lalr1")
        assert path.endswith(BINARY_SUFFIX)
        assert os.path.exists(path)
        second = cache.load_or_build(grammar, "lalr1", builder)
        assert calls == [grammar.name]
        assert cache.hits == 1
        assert second.actions == first.actions
        assert second.method == first.method

    def test_loaded_binary_table_parses(self, grammar, cache):
        from repro.parser import Parser

        cache.load_or_build(grammar, "lalr1", build_lalr_table)
        table = cache.load(grammar, "lalr1")
        assert Parser(table).accepts(["id", "+", "id"])

    def test_corrupt_binary_entry_rebuilds_and_evicts(self, grammar, cache):
        builder, calls = _build_calls(build_lalr_table)
        cache.load_or_build(grammar, "lalr1", builder)
        path = cache.path_for(grammar, "lalr1")
        with open(path, "wb") as handle:
            handle.write(b"RPTB" + b"\x00" * 10)  # truncated header
        table = cache.load_or_build(grammar, "lalr1", builder)
        assert len(calls) == 2
        assert cache.corrupt == 1
        assert table.is_deterministic

    def test_entry_truncated_under_a_live_reader(self, tmp_path):
        """A loaded table owns its memory: truncating its .rtb in place
        leaves it parsing exactly like a fresh build, and the next load
        evicts the damaged entry and rebuilds.  Runs in a child process
        because a table still reading the file would die of SIGBUS."""
        script = textwrap.dedent(
            """
            import os, sys
            from repro.analysis import SentenceGenerator
            from repro.grammars import corpus
            from repro.parser import ParseError, Parser
            from repro.tables import TableCache, build_lalr_table

            def outcome(parser, tokens):
                try:
                    return ("tree", parser.parse(tokens).sexpr())
                except ParseError as error:
                    return ("error", str(error), error.position, error.expected)

            directory = sys.argv[1]
            grammar = corpus.load("toy_java", augment=True)
            cache = TableCache(directory)
            cache.load_or_build(grammar, "lalr1", build_lalr_table)
            loaded = cache.load(grammar, "lalr1")
            path = cache.path_for(grammar, "lalr1")
            os.truncate(path, 200)

            fresh = build_lalr_table(grammar)
            live, reference = Parser(loaded), Parser(fresh)
            terminals = sorted(
                (t for t in grammar.terminals if t is not grammar.eof),
                key=lambda s: s.name,
            )
            streams = []
            for i, sentence in enumerate(
                SentenceGenerator(grammar, seed=3).sentences(6, budget=30)
            ):
                streams += [sentence, sentence[:-1], sentence + [terminals[i]]]
            for tokens in streams:
                assert outcome(live, tokens) == outcome(reference, tokens)

            second = TableCache(directory)
            assert second.load(grammar, "lalr1") is None
            assert second.corrupt == 1 and not os.path.exists(path)
            rebuilt = second.load_or_build(grammar, "lalr1", build_lalr_table)
            assert second.stores == 1
            assert rebuilt.action_codes == fresh.action_codes
            print("survived")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "cache")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
        assert proc.stdout.strip() == "survived"

    def test_backends_are_keyed_separately(self, grammar, cache):
        # A JSON entry left by the retired JSON backend sits at the same
        # key with another suffix: it is never read, and the binary
        # entry is stored beside it in the same shard.
        from repro.tables.serialize import save_table

        path = cache.path_for(grammar, "lalr1")
        os.makedirs(os.path.dirname(path))
        save_table(build_lalr_table(grammar), path[: -len(".rtb")] + ".json")
        cache.load_or_build(grammar, "lalr1", build_lalr_table)
        assert cache.hits == 0 and cache.corrupt == 0 and cache.stores == 1
        assert len(os.listdir(os.path.dirname(path))) == 2
        assert cache.entry_paths() == [path]

    def test_clear_removes_both_backends(self, grammar, cache):
        # A JSON entry left by the retired JSON backend is never read,
        # but clearing the cache removes it with the binary entry.
        from repro.tables.serialize import save_table

        path = cache.path_for(grammar, "lalr1")
        os.makedirs(os.path.dirname(path))
        save_table(build_lalr_table(grammar), path[: -len(".rtb")] + ".json")
        cache.load_or_build(grammar, "lalr1", build_lalr_table)
        assert cache.clear() == 2
        assert os.listdir(cache.directory) == []

    def test_load_emits_latency_and_size_counters(self, grammar, cache):
        cache.load_or_build(grammar, "lalr1", build_lalr_table)
        with profile() as collector:
            cache.load_or_build(grammar, "lalr1", build_lalr_table)
        assert collector.counters["table.cache.load_ns"] > 0
        assert collector.counters["table.bytes"] == os.path.getsize(
            cache.path_for(grammar, "lalr1")
        )

    def test_store_emits_size_counter(self, grammar, cache):
        with profile() as collector:
            cache.load_or_build(grammar, "lalr1", build_lalr_table)
        assert collector.counters["table.bytes"] == os.path.getsize(
            cache.path_for(grammar, "lalr1")
        )


class TestDefaultDirectory:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "override"))
        assert default_cache_dir() == str(tmp_path / "override")

    def test_falls_back_to_tempdir(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert os.path.basename(default_cache_dir()) == "repro-table-cache"


class TestFormatMigration:
    def test_pre_refactor_entry_evicted_and_rebuilt(self, grammar, cache):
        """An entry written in an older binary format version is treated
        as unusable: evicted from disk, counted as corrupt, and the
        table rebuilt from scratch."""
        from repro.tables.binfmt import BINARY_FORMAT_VERSION, table_to_bytes

        builder, calls = _build_calls(build_lalr_table)
        # Forge a version-1 entry at the exact key the cache would probe
        # (the version is the little-endian uint16 after the magic).
        stale = bytearray(table_to_bytes(build_lalr_table(grammar)))
        stale[4:6] = (1).to_bytes(2, "little")
        path = cache.path_for(grammar, "lalr1")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(stale)

        table = cache.load_or_build(grammar, "lalr1", builder)
        assert calls == [grammar.name]  # rebuilt, not loaded
        assert table.is_deterministic
        assert cache.corrupt == 1
        # The stale entry was replaced by a current-format one that now hits.
        with open(path, "rb") as handle:
            header = handle.read(6)
        assert int.from_bytes(header[4:6], "little") == BINARY_FORMAT_VERSION
        cache.load_or_build(grammar, "lalr1", builder)
        assert cache.hits == 1 and calls == [grammar.name]

    def test_flat_layout_entry_is_a_miss(self, grammar, cache):
        """Entries are only read from their fingerprint-prefix shard; an
        intact entry in the pre-sharding flat layout is never looked up."""
        from repro.tables.binfmt import save_binary_table

        sharded = cache.path_for(grammar, "lalr1")
        os.makedirs(cache.directory)
        save_binary_table(
            build_lalr_table(grammar),
            os.path.join(cache.directory, os.path.basename(sharded)),
        )
        assert cache.load(grammar, "lalr1") is None
        assert cache.stats()["misses"] == 1
        assert cache.stats()["corrupt"] == 0


def _concurrent_writer(directory, barrier, iterations):
    """Subprocess body: hammer store() at one fingerprint in lockstep."""
    from repro.grammars import corpus
    from repro.tables import TableCache, build_lalr_table

    grammar = corpus.load("expr", augment=True)
    table = build_lalr_table(grammar)
    cache = TableCache(directory)
    barrier.wait()  # maximise overlap between the two writers
    for _ in range(iterations):
        assert cache.store(table)


class TestConcurrentWriters:
    """Two processes store the same fingerprint simultaneously.

    The atomic temp-file + os.replace protocol guarantees (a) whichever
    write wins, the surviving entry is a complete, loadable artifact —
    never an interleaving of the two — and (b) no orphaned ``*.tmp``
    files are left behind.
    """

    def test_simultaneous_stores_leave_a_loadable_entry_and_no_litter(self, tmp_path):
        import multiprocessing

        directory = str(tmp_path / "cache")
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        workers = [
            context.Process(
                target=_concurrent_writer, args=(directory, barrier, 25)
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0

        # The survivor always loads (os.replace is all-or-nothing)...
        grammar = corpus.load("expr", augment=True)
        cache = TableCache(directory)
        table = cache.load(grammar, "lalr1")
        assert table is not None and table.is_deterministic
        assert cache.stats()["corrupt"] == 0
        # ...and the shard holds exactly the entry, no .tmp litter.
        entry_path = cache.path_for(grammar, "lalr1")
        assert sorted(os.listdir(directory)) == [
            os.path.basename(os.path.dirname(entry_path))
        ]
        leftovers = sorted(os.listdir(os.path.dirname(entry_path)))
        assert leftovers == [os.path.basename(entry_path)]
