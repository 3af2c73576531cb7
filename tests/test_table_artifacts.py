"""Integration tests: artifact round-trips and the artifacts bench.

A parse table has one stored form, its code arrays, and two on-disk
artifacts: JSON and binary.  These tests pin corpus-wide that both
round-trips reproduce the code arrays exactly and drive the engine to
identical parses, error positions, messages and expected sets.
"""

import pytest

from repro.analysis import SentenceGenerator
from repro.bench.artifacts import (
    ARTIFACT_BASELINE_FORMAT,
    artifacts_snapshot,
    compare_artifacts_baseline,
    snapshot_entry,
)
from repro.grammars import corpus
from repro.parser import ParseError, Parser
from repro.tables import build_lalr_table
from repro.tables.binfmt import table_from_bytes, table_to_bytes
from repro.tables.serialize import table_from_dict, table_to_dict


def outcome_of(parser, tokens):
    """('tree', sexpr) or ('error', message, position, expected names)."""
    try:
        return ("tree", parser.parse(list(tokens)).sexpr())
    except ParseError as error:
        return (
            "error",
            str(error),
            error.position,
            [s.name for s in error.expected],
        )


class TestCorpusWideDifferential:
    def test_all_representations_agree(self, corpus_grammar):
        grammar = corpus_grammar.augmented()
        table = build_lalr_table(grammar)
        if not table.is_deterministic:
            pytest.skip("needs a deterministic LALR table")
        reference = Parser(table)
        loaded = {
            "json": table_from_dict(table_to_dict(table), grammar),
            "binary": table_from_bytes(table_to_bytes(table), grammar),
        }
        for label, restored in loaded.items():
            assert restored.action_codes == table.action_codes, label
            assert restored.goto_codes == table.goto_codes, label
        variants = {label: Parser(restored) for label, restored in loaded.items()}
        terminals = [t for t in grammar.terminals if t is not grammar.eof]

        generator = SentenceGenerator(grammar, seed=13)
        sentences = generator.sentences(8, budget=10)
        streams = [list(s) for s in sentences]
        # Mutants stay inside the grammar's terminal alphabet: unknown
        # names take the engine's "unknown terminal" path, which is not
        # part of the representation contract.
        for sentence in sentences:
            streams.append(list(sentence[:-1]))
            streams.append(list(sentence) + list(sentence[-1:]))
            for i in range(len(sentence)):
                streams.append(
                    list(sentence[:i])
                    + [terminals[i % len(terminals)]]
                    + list(sentence[i + 1 :])
                )
        streams.append([])

        accepted = rejected = 0
        for stream in streams:
            expected = outcome_of(reference, stream)
            if expected[0] == "tree":
                accepted += 1
            else:
                rejected += 1
            for label, parser in variants.items():
                assert outcome_of(parser, stream) == expected, (
                    label,
                    [getattr(t, "name", t) for t in stream],
                )
        assert accepted > 0 and rejected > 0


class TestEofSpelling:
    def test_expected_set_message_never_leaks_end_marker(self):
        grammar = corpus.load("expr", augment=True)
        parser = Parser(build_lalr_table(grammar))
        with pytest.raises(ParseError) as info:
            parser.parse(["id", "id"])
        assert "end of input" in str(info.value)
        assert "$end" not in str(info.value)
        # The structured expected list still carries the real Symbols.
        assert grammar.eof in info.value.expected


class TestArtifactsBench:
    @pytest.fixture(scope="class")
    def snapshot(self):
        return artifacts_snapshot(
            [("expr", corpus.load("expr"))], repeats=1
        )

    def test_snapshot_shape(self, snapshot):
        assert snapshot["format"] == ARTIFACT_BASELINE_FORMAT
        entry = snapshot["grammars"]["expr"]
        assert entry["tokens_per_sec"] > 0
        assert set(entry["cold_load_seconds"]) == {"json", "bin"}
        counters = entry["counters"]
        assert counters["stored_cells"] < counters["dense_cells"]
        assert counters["json_bytes"] > 0 and counters["bin_bytes"] > 0

    def test_self_comparison_is_clean(self, snapshot):
        rows, drift = compare_artifacts_baseline(snapshot, snapshot)
        assert drift == []
        assert rows

    def test_counter_drift_detected(self, snapshot):
        import copy

        mutated = copy.deepcopy(snapshot)
        mutated["grammars"]["expr"]["counters"]["comb_slots"] += 1
        _, drift = compare_artifacts_baseline(mutated, snapshot)
        assert any("comb_slots" in message for message in drift)

    def test_missing_grammar_is_drift(self, snapshot):
        import copy

        current = copy.deepcopy(snapshot)
        current["grammars"]["mystery"] = {"counters": {}}
        _, drift = compare_artifacts_baseline(current, snapshot)
        assert any("mystery" in message for message in drift)

    def test_conflicted_grammar_skips_cleanly(self):
        entry = snapshot_entry(corpus.load("dangling_else"), repeats=1)
        assert "skipped" in entry
        snapshot = {"format": 1, "grammars": {"dangling_else": entry}}
        _, drift = compare_artifacts_baseline(snapshot, snapshot)
        assert drift == []

    def test_committed_baseline_matches_current_counters(self):
        """BENCH_table_artifacts.json must track the code: regenerate it
        (see the module docstring) whenever representations change."""
        import json
        import os

        path = os.path.join(os.path.dirname(__file__), "..",
                            "BENCH_table_artifacts.json")
        with open(path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        names = list(baseline["grammars"])
        current = artifacts_snapshot(
            [(name, corpus.load(name)) for name in names], repeats=1
        )
        _, drift = compare_artifacts_baseline(current, baseline)
        assert drift == []
