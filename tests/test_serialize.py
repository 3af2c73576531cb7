"""Unit tests: parse-table serialisation."""

import json

import pytest

from repro.analysis import SentenceGenerator
from repro.grammar import load_grammar
from repro.grammars import corpus
from repro.parser import Parser
from repro.tables import build_lalr_table
from repro.tables.serialize import (
    TableCacheError,
    grammar_fingerprint,
    load_table,
    save_table,
    table_from_dict,
    table_to_dict,
)


class TestFingerprint:
    def test_stable_across_reparses(self):
        a = corpus.load("expr", augment=True)
        b = corpus.load("expr", augment=True)
        assert grammar_fingerprint(a) == grammar_fingerprint(b)

    def test_sensitive_to_rules(self):
        a = load_grammar("S -> a").augmented()
        b = load_grammar("S -> b").augmented()
        assert grammar_fingerprint(a) != grammar_fingerprint(b)

    def test_sensitive_to_precedence(self):
        a = load_grammar("%left '+'\nE -> E + E | x").augmented()
        b = load_grammar("%right '+'\nE -> E + E | x").augmented()
        assert grammar_fingerprint(a) != grammar_fingerprint(b)

    def test_sensitive_to_start(self):
        a = load_grammar("%start A\nA -> x\nB -> y")
        b = load_grammar("%start B\nA -> x\nB -> y")
        assert grammar_fingerprint(a) != grammar_fingerprint(b)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["expr", "json", "lvalue", "algol_like"])
    def test_identical_tables(self, name):
        grammar = corpus.load(name, augment=True)
        table = build_lalr_table(grammar)
        restored = table_from_dict(table_to_dict(table), grammar)
        assert restored.actions == table.actions
        assert restored.gotos == table.gotos
        assert restored.method == table.method

    def test_restored_table_parses(self):
        grammar = corpus.load("expr", augment=True)
        table = build_lalr_table(grammar)
        restored = table_from_dict(table_to_dict(table), grammar)
        original_parser = Parser(table)
        restored_parser = Parser(restored)
        generator = SentenceGenerator(grammar, seed=3)
        for sentence in generator.sentences(10, budget=10):
            assert (
                restored_parser.parse(sentence).sexpr()
                == original_parser.parse(sentence).sexpr()
            )

    def test_json_safe(self):
        grammar = corpus.load("json", augment=True)
        data = table_to_dict(build_lalr_table(grammar))
        json.dumps(data)  # must not raise

    def test_file_round_trip(self, tmp_path):
        grammar = corpus.load("expr", augment=True)
        table = build_lalr_table(grammar)
        path = tmp_path / "table.json"
        save_table(table, str(path))
        restored = load_table(str(path), grammar)
        assert restored.actions == table.actions


class TestGuards:
    def test_conflicted_table_round_trips(self):
        grammar = corpus.load("dangling_else", augment=True)
        table = build_lalr_table(grammar)
        assert table.unresolved_conflicts
        restored = table_from_dict(table_to_dict(table), grammar)
        assert not restored.is_deterministic
        assert len(restored.unresolved_conflicts) == len(
            table.unresolved_conflicts
        )
        assert restored.conflict_summary() == table.conflict_summary()

    def test_fingerprint_mismatch_refused(self):
        expr = corpus.load("expr", augment=True)
        other = corpus.load("lvalue", augment=True)
        data = table_to_dict(build_lalr_table(expr))
        with pytest.raises(ValueError, match="fingerprint"):
            table_from_dict(data, other)

    def test_format_version_checked(self):
        grammar = corpus.load("expr", augment=True)
        data = table_to_dict(build_lalr_table(grammar))
        data["format"] = 99
        with pytest.raises(ValueError, match="format"):
            table_from_dict(data, grammar)


class TestTypedErrors:
    """Every decode failure is a TableCacheError (a ValueError subclass),
    so callers can catch corruption without also swallowing other bugs."""

    def test_is_a_value_error(self):
        assert issubclass(TableCacheError, ValueError)

    def test_non_dict_payload(self):
        grammar = corpus.load("expr", augment=True)
        with pytest.raises(TableCacheError, match="payload"):
            table_from_dict(["nope"], grammar)

    def test_truncated_payload(self):
        grammar = corpus.load("expr", augment=True)
        data = table_to_dict(build_lalr_table(grammar))
        del data["actions"]
        with pytest.raises(TableCacheError, match="truncated or malformed"):
            table_from_dict(data, grammar)

    def test_unknown_action_encoding(self):
        grammar = corpus.load("expr", augment=True)
        data = table_to_dict(build_lalr_table(grammar))
        data["actions"][0]["id"] = ["warp", 3]
        with pytest.raises(TableCacheError, match="action encoding"):
            table_from_dict(data, grammar)

    def test_mismatch_errors_are_typed(self):
        expr = corpus.load("expr", augment=True)
        other = corpus.load("lvalue", augment=True)
        data = table_to_dict(build_lalr_table(expr))
        with pytest.raises(TableCacheError):
            table_from_dict(data, other)

    def test_invalid_json_file(self, tmp_path):
        grammar = corpus.load("expr", augment=True)
        path = tmp_path / "table.json"
        path.write_text('{"format": 1, "acti', encoding="utf-8")
        with pytest.raises(TableCacheError, match="corrupt table file"):
            load_table(str(path), grammar)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        grammar = corpus.load("expr", augment=True)
        with pytest.raises(FileNotFoundError):
            load_table(str(tmp_path / "absent.json"), grammar)


class TestRowValidation:
    """table_from_dict reconstructs with conflicts=[]; that is only
    sound because every loaded row is validated — a hand-corrupted
    payload that smuggles structural nonsense must be rejected."""

    def payload(self):
        grammar = corpus.load("expr", augment=True)
        return grammar, table_to_dict(build_lalr_table(grammar))

    def test_conflict_cell_list_rejected(self):
        # A list of actions in one cell is how a conflicted table would
        # have to be encoded; it must never load as "conflict-free".
        grammar, data = self.payload()
        data["actions"][0]["id"] = [["s", 5], ["r", 2]]
        with pytest.raises(TableCacheError):
            table_from_dict(data, grammar)

    def test_overlong_action_encoding_rejected(self):
        grammar, data = self.payload()
        data["actions"][0]["id"] = ["s", 5, 6]
        with pytest.raises(TableCacheError, match="action encoding"):
            table_from_dict(data, grammar)

    def test_non_integer_shift_target_rejected(self):
        grammar, data = self.payload()
        data["actions"][0]["id"] = ["s", "5"]
        with pytest.raises(TableCacheError, match="action encoding"):
            table_from_dict(data, grammar)

    def test_unknown_symbol_name_rejected(self):
        grammar, data = self.payload()
        data["actions"][0]["not_a_symbol"] = ["s", 1]
        with pytest.raises(TableCacheError, match="malformed"):
            table_from_dict(data, grammar)

    def test_nonterminal_in_action_row_rejected(self):
        grammar, data = self.payload()
        data["actions"][0]["E"] = ["s", 1]
        with pytest.raises(TableCacheError, match="nonterminal"):
            table_from_dict(data, grammar)

    def test_terminal_in_goto_row_rejected(self):
        grammar, data = self.payload()
        data["gotos"][0]["id"] = 1
        with pytest.raises(TableCacheError, match="terminal"):
            table_from_dict(data, grammar)

    def test_shift_target_out_of_range_rejected(self):
        grammar, data = self.payload()
        data["actions"][0]["id"] = ["s", 10_000]
        with pytest.raises(TableCacheError, match="shift target"):
            table_from_dict(data, grammar)

    def test_reduce_production_out_of_range_rejected(self):
        grammar, data = self.payload()
        data["actions"][0]["id"] = ["r", 10_000]
        with pytest.raises(TableCacheError, match="reduce production"):
            table_from_dict(data, grammar)

    def test_goto_target_out_of_range_rejected(self):
        grammar, data = self.payload()
        state, row = next(
            (i, row) for i, row in enumerate(data["gotos"]) if row
        )
        row[next(iter(row))] = -3
        with pytest.raises(TableCacheError, match="GOTO target"):
            table_from_dict(data, grammar)

    def test_boolean_goto_target_rejected(self):
        grammar, data = self.payload()
        row = next(row for row in data["gotos"] if row)
        row[next(iter(row))] = True
        with pytest.raises(TableCacheError, match="GOTO target"):
            table_from_dict(data, grammar)

    def test_row_count_mismatch_rejected(self):
        grammar, data = self.payload()
        data["gotos"] = data["gotos"][:-1]
        with pytest.raises(TableCacheError, match="rows"):
            table_from_dict(data, grammar)

    def test_valid_payload_still_loads(self):
        grammar, data = self.payload()
        table = table_from_dict(data, grammar)
        assert table.conflicts == []
        assert Parser(table).accepts(["id", "+", "id"])


class TestAtomicWrite:
    def test_no_temp_files_left_behind(self, tmp_path):
        grammar = corpus.load("expr", augment=True)
        table = build_lalr_table(grammar)
        path = tmp_path / "table.json"
        save_table(table, str(path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.json"]

    def test_failed_write_preserves_old_file(self, tmp_path, monkeypatch):
        grammar = corpus.load("expr", augment=True)
        table = build_lalr_table(grammar)
        path = tmp_path / "table.json"
        save_table(table, str(path))
        original = path.read_text(encoding="utf-8")

        import repro.tables.serialize as serialize

        def explode(*args, **kwargs):
            raise ValueError("simulated mid-write crash")

        monkeypatch.setattr(serialize.json, "dump", explode)
        with pytest.raises(ValueError, match="simulated"):
            save_table(table, str(path))
        # The destination is untouched and the temp file was cleaned up.
        assert path.read_text(encoding="utf-8") == original
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.json"]

    def test_overwrite_replaces_content(self, tmp_path):
        grammar = corpus.load("expr", augment=True)
        table = build_lalr_table(grammar)
        path = tmp_path / "table.json"
        path.write_text("old junk", encoding="utf-8")
        save_table(table, str(path))
        restored = load_table(str(path), grammar)
        assert restored.actions == table.actions


class TestFormatBump:
    """Format bumps evict stale artifacts: version-1 payloads (pre-ID
    era), version-2 payloads (no resolved-conflict section), and
    version-3 payloads (no unresolved conflicts — they cannot represent
    a GLR-bound table) must be rejected so cache layers rebuild."""

    def test_current_format_is_4(self):
        from repro.tables.serialize import FORMAT_VERSION

        assert FORMAT_VERSION == 4

    @pytest.mark.parametrize("stale_version", [1, 2, 3])
    def test_older_format_payload_rejected(self, stale_version):
        grammar = corpus.load("expr", augment=True)
        data = table_to_dict(build_lalr_table(grammar))
        data["format"] = stale_version
        with pytest.raises(TableCacheError, match="format"):
            table_from_dict(data, grammar)

    def test_resolved_conflicts_survive_the_round_trip(self):
        # expr_prec settles 20 cells by precedence; the loaded table must
        # report the same summary (the serving layer's bit-identity
        # contract reads it) — format 2 silently dropped them.
        grammar = corpus.load("expr_prec", augment=True)
        table = build_lalr_table(grammar)
        assert table.conflict_summary()["resolved"] > 0
        restored = table_from_dict(table_to_dict(table), grammar)
        assert restored.conflict_summary() == table.conflict_summary()
        original = {
            (c.state, c.terminal, c.kind, tuple(c.actions), c.chosen)
            for c in table.conflicts
        }
        roundtripped = {
            (c.state, c.terminal, c.kind, tuple(c.actions), c.chosen)
            for c in restored.conflicts
        }
        assert roundtripped == original
        assert all(c.resolved_by_precedence for c in restored.conflicts)

    def test_conflict_free_payload_omits_the_conflicts_key(self):
        grammar = corpus.load("expr", augment=True)
        assert "conflicts" not in table_to_dict(build_lalr_table(grammar))

    def test_malformed_conflict_record_rejected(self):
        grammar = corpus.load("expr", augment=True)
        data = table_to_dict(build_lalr_table(grammar))
        data["conflicts"] = [[0, "id", "shift/reduce"]]  # truncated record
        with pytest.raises(TableCacheError, match="conflict"):
            table_from_dict(data, grammar)

    def test_unresolved_conflicts_survive_the_round_trip(self):
        grammar = corpus.load("dangling_else", augment=True)
        table = build_lalr_table(grammar)
        restored = table_from_dict(table_to_dict(table), grammar)
        original = {
            (c.state, c.terminal, c.kind, tuple(c.actions), c.chosen)
            for c in table.unresolved_conflicts
        }
        roundtripped = {
            (c.state, c.terminal, c.kind, tuple(c.actions), c.chosen)
            for c in restored.unresolved_conflicts
        }
        assert original and roundtripped == original
        assert not any(
            c.resolved_by_precedence for c in restored.unresolved_conflicts
        )

    def test_fingerprint_covers_id_layout_version(self, monkeypatch):
        # The hashing now lives in repro.grammar.fingerprint (one scheme
        # for the disk cache, the session memo and the fuzz corpus).
        from repro.grammar import fingerprint

        grammar = corpus.load("expr", augment=True)
        before = grammar_fingerprint(grammar)
        monkeypatch.setattr(
            fingerprint,
            "ID_LAYOUT_VERSION",
            fingerprint.ID_LAYOUT_VERSION + 1,
        )
        assert grammar_fingerprint(grammar) != before


def _set(path, value):
    """A mutation that sets ``data[k0][k1]...[kn] = value``."""

    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value

    return mutate


def _delete(key):
    def mutate(data):
        del data[key]

    return mutate


def _truncate_gotos(data):
    data["gotos"] = data["gotos"][:-1]


_CELL = ("actions", 0, "id")
_CELL_PAIR = [["s", 5], ["r", 2]]

#: One malformed expr/lalr1 payload per error path of the JSON loader,
#: with the exact TableCacheError message it must raise.
MALFORMED_ARTIFACTS = [
    ("wrong-format", _set(("format",), 3), "unsupported table format 3"),
    ("missing-format", _delete("format"), "unsupported table format None"),
    (
        "fingerprint-mismatch",
        _set(("fingerprint",), "0" * 64),
        "grammar fingerprint mismatch: the table was built from a different "
        "grammar (rebuild instead of loading the cache)",
    ),
    (
        "nonterminal-in-action-row",
        _set(("actions", 0, "E"), ["s", 1]),
        "malformed table payload: nonterminal 'E' in ACTION row 0",
    ),
    (
        "terminal-in-goto-row",
        _set(("gotos", 0, "id"), 1),
        "malformed table payload: terminal 'id' in GOTO row 0",
    ),
    (
        "shift-target-out-of-range",
        _set(_CELL, ["s", 13]),
        "malformed table payload: shift target 13 out of range in ACTION row 0",
    ),
    (
        "negative-shift-target",
        _set(_CELL, ["s", -1]),
        "malformed table payload: shift target -1 out of range in ACTION row 0",
    ),
    (
        "reduce-production-out-of-range",
        _set(_CELL, ["r", 7]),
        "malformed table payload: reduce production 7 out of range in "
        "ACTION row 0",
    ),
    (
        "goto-target-out-of-range",
        _set(("gotos", 0, "E"), 13),
        "malformed table payload: GOTO target 13 out of range in row 0",
    ),
    (
        "boolean-goto-target",
        _set(("gotos", 0, "E"), True),
        "malformed table payload: GOTO target True out of range in row 0",
    ),
    (
        "string-goto-target",
        _set(("gotos", 0, "E"), "1"),
        "malformed table payload: GOTO target '1' out of range in row 0",
    ),
    (
        "row-count-mismatch",
        _truncate_gotos,
        "malformed table payload: 13 ACTION rows but 12 GOTO rows",
    ),
    (
        "truncated-actions",
        _delete("actions"),
        "truncated or malformed table payload: 'actions'",
    ),
    (
        "truncated-gotos",
        _delete("gotos"),
        "truncated or malformed table payload: 'gotos'",
    ),
    (
        "truncated-method",
        _delete("method"),
        "truncated or malformed table payload: 'method'",
    ),
    (
        "row-not-an-object",
        _set(("actions", 3), []),
        "truncated or malformed table payload: 'list' object has no "
        "attribute 'items'",
    ),
    (
        "unknown-symbol",
        _set(("actions", 0, "nope"), ["s", 1]),
        "truncated or malformed table payload: unknown symbol 'nope'",
    ),
    (
        "unknown-action-kind",
        _set(_CELL, ["x", 1]),
        "unknown action encoding ['x', 1]",
    ),
    (
        "overlong-action",
        _set(_CELL, ["s", 5, 6]),
        "unknown action encoding ['s', 5, 6]",
    ),
    (
        "non-integer-shift-target",
        _set(_CELL, ["s", "5"]),
        "unknown action encoding ['s', '5']",
    ),
    (
        "conflicted-cell",
        _set(_CELL, _CELL_PAIR),
        "unknown action encoding [['s', 5], ['r', 2]]",
    ),
    ("empty-action", _set(_CELL, []), "unknown action encoding []"),
    (
        "scalar-action",
        _set(_CELL, 5),
        "truncated or malformed table payload: 'int' object is not subscriptable",
    ),
    (
        "short-conflict-record",
        _set(("conflicts",), [[0, "id", "shift/reduce"]]),
        "malformed conflict record [0, 'id', 'shift/reduce']",
    ),
    (
        "unknown-conflict-kind",
        _set(("conflicts",), [[0, "id", "maybe", _CELL_PAIR, ["s", 5], False]]),
        "malformed conflict record [0, 'id', 'maybe', [['s', 5], ['r', 2]], "
        "['s', 5], False]",
    ),
    (
        "non-boolean-conflict-flag",
        _set(("conflicts",), [[0, "id", "shift/reduce", _CELL_PAIR, None, 0]]),
        "malformed conflict record [0, 'id', 'shift/reduce', [['s', 5], "
        "['r', 2]], None, 0]",
    ),
    (
        "non-integer-conflict-state",
        _set(("conflicts",), [["0", "id", "shift/reduce", _CELL_PAIR, None, True]]),
        "malformed conflict record ['0', 'id', 'shift/reduce', [['s', 5], "
        "['r', 2]], None, True]",
    ),
    (
        "unknown-conflict-terminal",
        _set(("conflicts",), [[0, "nope", "shift/reduce", _CELL_PAIR, None, True]]),
        "truncated or malformed table payload: unknown symbol 'nope'",
    ),
    (
        "bad-conflict-action",
        _set(("conflicts",), [[0, "id", "shift/reduce", [["q"]], None, False]]),
        "unknown action encoding ['q']",
    ),
    (
        "conflicts-not-a-list",
        _set(("conflicts",), 5),
        "truncated or malformed table payload: 'int' object is not iterable",
    ),
]


class TestMalformedArtifactCorpus:
    """Every way a JSON artifact can be malformed raises TableCacheError
    with one exact message, so rewriting the loader cannot silently
    change what a damaged artifact reports."""

    @pytest.mark.parametrize(
        "mutate, message",
        [case[1:] for case in MALFORMED_ARTIFACTS],
        ids=[case[0] for case in MALFORMED_ARTIFACTS],
    )
    def test_exact_message(self, mutate, message):
        grammar = corpus.load("expr", augment=True)
        data = table_to_dict(build_lalr_table(grammar))
        mutate(data)
        with pytest.raises(TableCacheError) as caught:
            table_from_dict(data, grammar)
        assert str(caught.value) == message

    def test_symbol_outside_the_layout(self):
        # The symbol table is shared with the augmented copy, so a
        # non-augmented grammar knows ``$end`` but has no column for it.
        grammar = corpus.load("expr")
        data = table_to_dict(build_lalr_table(grammar.augmented()))
        data["fingerprint"] = grammar_fingerprint(grammar)
        with pytest.raises(TableCacheError) as caught:
            table_from_dict(data, grammar)
        assert str(caught.value) == (
            "malformed table payload: '$end' is not in the grammar's symbol layout"
        )

    def test_payload_not_an_object(self):
        grammar = corpus.load("expr", augment=True)
        with pytest.raises(TableCacheError) as caught:
            table_from_dict(["nope"], grammar)
        assert str(caught.value) == "table payload is list, not an object"

    def test_unparseable_file(self, tmp_path):
        grammar = corpus.load("expr", augment=True)
        path = tmp_path / "table.json"
        text = '{"format": 4, "acti'
        path.write_text(text, encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as parse_error:
            json.loads(text)
        with pytest.raises(TableCacheError) as caught:
            load_table(str(path), grammar)
        assert str(caught.value) == (
            f"corrupt table file {str(path)!r}: {parse_error.value}"
        )
