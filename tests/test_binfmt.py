"""Unit tests: the versioned binary parse-table format."""

import struct

import pytest

from repro.grammars import corpus
from repro.parser import Parser
from repro.tables import build_lalr_table
from repro.tables.binfmt import (
    _HEADER,
    BINARY_FORMAT_VERSION,
    BINARY_SUFFIX,
    load_binary_table,
    save_binary_table,
    table_from_bytes,
    table_to_bytes,
)
from repro.tables.serialize import TableCacheError


def expr_table():
    return build_lalr_table(corpus.load("expr", augment=True))


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["expr", "json", "lvalue", "algol_like"])
    def test_in_memory_round_trip(self, name):
        grammar = corpus.load(name, augment=True)
        table = build_lalr_table(grammar)
        restored = table_from_bytes(table_to_bytes(table), grammar)
        assert restored.n_states == table.n_states
        assert restored.method == table.method
        assert restored.action_codes == table.action_codes
        assert restored.goto_codes == table.goto_codes
        assert restored.actions == table.actions

    def test_file_round_trip(self, tmp_path):
        grammar = corpus.load("expr", augment=True)
        table = build_lalr_table(grammar)
        path = tmp_path / f"table{BINARY_SUFFIX}"
        written = save_binary_table(table, str(path))
        assert written == path.stat().st_size
        restored = load_binary_table(str(path), grammar)
        assert restored.actions == table.actions

    def test_deterministic_bytes(self):
        table = expr_table()
        assert table_to_bytes(table) == table_to_bytes(table)

    def test_restored_table_parses_identically(self):
        grammar = corpus.load("expr", augment=True)
        table = build_lalr_table(grammar)
        restored = table_from_bytes(table_to_bytes(table), grammar)
        original, loaded = Parser(table), Parser(restored)
        good = ["id", "+", "id", "*", "(", "id", ")"]
        assert loaded.parse(good).sexpr() == original.parse(good).sexpr()

    def test_conflicted_table_round_trips(self):
        grammar = corpus.load("dangling_else", augment=True)
        table = build_lalr_table(grammar)
        assert table.unresolved_conflicts
        restored = table_from_bytes(table_to_bytes(table), grammar)
        assert not restored.is_deterministic
        assert len(restored.unresolved_conflicts) == len(
            table.unresolved_conflicts
        )
        assert restored.conflict_summary() == table.conflict_summary()
        original = restored.unresolved_conflicts[0]
        assert original.kind == table.unresolved_conflicts[0].kind
        assert original.terminal.name == (
            table.unresolved_conflicts[0].terminal.name
        )


class TestLazyDecode:
    def test_load_and_parse_decode_no_cell(self, monkeypatch):
        from repro.tables.table import ActionDecoder

        grammar = corpus.load("expr", augment=True)
        blob = table_to_bytes(build_lalr_table(grammar))
        decoded = []
        original = ActionDecoder.decode

        def counting(self, encoded):
            decoded.append(encoded)
            return original(self, encoded)

        monkeypatch.setattr(ActionDecoder, "decode", counting)
        restored = table_from_bytes(blob, grammar)
        assert Parser(restored).accepts(["id", "+", "id", "*", "id"])
        assert decoded == []

    def test_duck_compatible_surface(self):
        grammar = corpus.load("expr", augment=True)
        table = build_lalr_table(grammar)
        restored = table_from_bytes(table_to_bytes(table), grammar)
        assert restored.is_deterministic
        assert restored.unresolved_conflicts == []
        assert restored.conflict_summary() == {
            "shift_reduce": 0, "reduce_reduce": 0, "resolved": 0,
        }
        assert restored.size_cells() == table.size_cells()
        for state in range(table.n_states):
            for terminal, action in table.actions[state].items():
                assert restored.action(state, terminal) == action
            for nonterminal, target in table.gotos[state].items():
                assert restored.goto(state, nonterminal) == target


class TestRejection:
    """Every structural defect is a TableCacheError — the cache layer's
    uniform "evict and rebuild" contract covers binary entries too."""

    def corrupt(self, blob: bytes, offset: int, new: bytes) -> bytes:
        return blob[:offset] + new + blob[offset + len(new) :]

    def test_bad_magic(self):
        grammar = corpus.load("expr", augment=True)
        blob = self.corrupt(table_to_bytes(expr_table()), 0, b"JUNK")
        with pytest.raises(TableCacheError, match="magic"):
            table_from_bytes(blob, grammar)

    def test_foreign_format_version(self):
        grammar = corpus.load("expr", augment=True)
        blob = self.corrupt(
            table_to_bytes(expr_table()), 4, struct.pack("<H", BINARY_FORMAT_VERSION + 1)
        )
        with pytest.raises(TableCacheError, match="format"):
            table_from_bytes(blob, grammar)

    def test_foreign_id_layout(self):
        grammar = corpus.load("expr", augment=True)
        blob = self.corrupt(table_to_bytes(expr_table()), 6, struct.pack("<H", 99))
        with pytest.raises(TableCacheError, match="ID layout"):
            table_from_bytes(blob, grammar)

    def test_foreign_fingerprint(self):
        other = corpus.load("lvalue", augment=True)
        with pytest.raises(TableCacheError, match="fingerprint"):
            table_from_bytes(table_to_bytes(expr_table()), other)

    def test_truncated_header(self):
        grammar = corpus.load("expr", augment=True)
        with pytest.raises(TableCacheError, match="truncated"):
            table_from_bytes(table_to_bytes(expr_table())[:10], grammar)

    def test_truncated_payload(self):
        grammar = corpus.load("expr", augment=True)
        with pytest.raises(TableCacheError, match="truncated"):
            table_from_bytes(table_to_bytes(expr_table())[:-8], grammar)

    def test_payload_corruption_caught_by_crc(self):
        grammar = corpus.load("expr", augment=True)
        blob = table_to_bytes(expr_table())
        # XOR-flip one mid-payload byte: same length, different content.
        index = len(blob) - len(blob) // 4
        corrupted = self.corrupt(blob, index, bytes([blob[index] ^ 0x5A]))
        with pytest.raises(TableCacheError, match="CRC"):
            table_from_bytes(corrupted, grammar)

    def test_empty_file(self, tmp_path):
        grammar = corpus.load("expr", augment=True)
        path = tmp_path / f"empty{BINARY_SUFFIX}"
        path.write_bytes(b"")
        with pytest.raises(TableCacheError, match="truncated"):
            load_binary_table(str(path), grammar)

    def test_json_file_masquerading_as_binary(self, tmp_path):
        grammar = corpus.load("expr", augment=True)
        path = tmp_path / f"fake{BINARY_SUFFIX}"
        path.write_bytes(b'{"format": 2, "actions": []}' + b" " * 100)
        with pytest.raises(TableCacheError, match="magic"):
            load_binary_table(str(path), grammar)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        grammar = corpus.load("expr", augment=True)
        with pytest.raises(FileNotFoundError):
            load_binary_table(str(tmp_path / "absent.rtb"), grammar)


class TestAtomicWrite:
    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / f"table{BINARY_SUFFIX}"
        save_binary_table(expr_table(), str(path))
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_overwrite_replaces_content(self, tmp_path):
        grammar = corpus.load("expr", augment=True)
        table = build_lalr_table(grammar)
        path = tmp_path / f"table{BINARY_SUFFIX}"
        path.write_bytes(b"old junk")
        save_binary_table(table, str(path))
        restored = load_binary_table(str(path), grammar)
        assert restored.actions == table.actions


class TestResolvedConflictSection:
    """Format 2's trailing section: precedence-resolved conflicts ride
    the artifact, so a loaded table reports the builder's summary."""

    def test_resolved_conflicts_survive_the_round_trip(self):
        grammar = corpus.load("expr_prec", augment=True)
        table = build_lalr_table(grammar)
        assert table.conflict_summary()["resolved"] > 0
        restored = table_from_bytes(table_to_bytes(table), grammar)
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

    def test_conflict_free_artifact_has_no_section(self):
        grammar = corpus.load("expr", augment=True)
        table = build_lalr_table(grammar)
        blob = table_to_bytes(table)
        base = (
            _HEADER.size
            + 64  # fingerprint
            + len(table.method)
            + 4 * table.n_states
            * (grammar.ids.num_terminals + grammar.ids.num_nonterminals)
        )
        assert len(blob) == base

    def test_truncated_resolved_section_rejected(self):
        grammar = corpus.load("expr_prec", augment=True)
        blob = table_to_bytes(build_lalr_table(grammar))
        with pytest.raises(TableCacheError):
            table_from_bytes(blob[:-8], grammar)
