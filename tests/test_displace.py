"""Unit tests: displacement (comb) parse-table compression."""

import pytest

from repro.grammars import corpus
from repro.tables import build_lalr_table
from repro.tables.displace import (
    DisplacedTable,
    displace,
    displacement_ratio,
    pack_rows,
)
from repro.tables.table import (
    ACCEPT,
    ACTION_ACCEPT,
    ACTION_ERROR,
    ActionDecoder,
    Reduce,
    Shift,
    encode_action,
)


def code_rows(codes, width):
    """A flat code array split into per-state rows."""
    return [list(codes[base:base + width]) for base in range(0, len(codes), width)]


class TestActionEncoding:
    def test_round_trip_all_kinds(self):
        decoder = ActionDecoder()
        for action in [Shift(7), Reduce(3), ACCEPT, None]:
            assert decoder.decode(encode_action(action)) == action

    def test_error_is_zero(self):
        assert encode_action(None) == ACTION_ERROR == 0

    def test_accept_is_bare_tag(self):
        assert encode_action(ACCEPT) == ACTION_ACCEPT

    def test_decoder_interns(self):
        decoder = ActionDecoder()
        code = encode_action(Shift(5))
        assert decoder.decode(code) is decoder.decode(code)

    def test_decoder_rejects_garbage(self):
        with pytest.raises(ValueError):
            ActionDecoder().decode(-1)


class TestPackRows:
    def lookup(self, packed, row, col, n_cols, empty):
        displacements, check, values = packed
        slot = displacements[row] + col
        if 0 <= slot < len(check) and check[slot] == row:
            return values[slot]
        return empty

    def assert_faithful(self, rows, empty):
        packed = pack_rows(rows, empty=empty)
        for r, row in enumerate(rows):
            for c, cell in enumerate(row):
                assert self.lookup(packed, r, c, len(row), empty) == cell, (r, c)

    def test_disjoint_rows_interleave(self):
        # Rows populate disjoint columns; the comb can overlay them.
        rows = [[5, 0, 0, 0], [0, 6, 0, 0], [0, 0, 7, 0]]
        displacements, check, values = pack_rows(rows)
        assert len(values) <= 4  # fully interleaved, no growth
        self.assert_faithful(rows, 0)

    def test_identical_dense_rows_cannot_share(self):
        rows = [[1, 2], [3, 4]]
        self.assert_faithful(rows, 0)
        _, check, _ = pack_rows(rows)
        assert len(check) >= 4

    def test_empty_rows(self):
        self.assert_faithful([[0, 0], [0, 0]], 0)
        displacements, check, values = pack_rows([[0, 0], [0, 0]])
        assert len(check) == 0 and len(values) == 0

    def test_no_rows(self):
        displacements, check, values = pack_rows([])
        assert len(displacements) == len(check) == len(values) == 0

    def test_custom_empty_sentinel(self):
        rows = [[-1, 3, -1], [2, -1, -1]]
        self.assert_faithful(rows, -1)

    def test_deterministic(self):
        rows = [[0, 2, 0, 3], [4, 0, 0, 0], [0, 2, 0, 3], [0, 0, 5, 0]]
        first = pack_rows(rows)
        second = pack_rows(rows)
        assert [list(a) for a in first] == [list(a) for a in second]

    @pytest.mark.parametrize("name", ["expr", "json", "algol_like", "toy_java"])
    def test_faithful_on_corpus_tables(self, name):
        table = build_lalr_table(corpus.load(name, augment=True))
        ids = table.grammar.ids
        self.assert_faithful(code_rows(table.action_codes, ids.num_terminals), 0)
        self.assert_faithful(code_rows(table.goto_codes, ids.num_nonterminals), -1)


class TestDisplacedTable:
    @pytest.fixture
    def expr_table(self):
        return build_lalr_table(corpus.load("expr", augment=True))

    def test_rows_match_dense(self, expr_table):
        displaced = displace(expr_table)
        ids = expr_table.grammar.ids
        for codes, width, (displacements, check, values), empty in (
            (
                expr_table.action_codes,
                ids.num_terminals,
                (
                    displaced.action_displacements,
                    displaced.action_check,
                    displaced.action_values,
                ),
                ACTION_ERROR,
            ),
            (
                expr_table.goto_codes,
                ids.num_nonterminals,
                (
                    displaced.goto_displacements,
                    displaced.goto_check,
                    displaced.goto_values,
                ),
                -1,
            ),
        ):
            for state, row in enumerate(code_rows(codes, width)):
                for column, cell in enumerate(row):
                    slot = displacements[state] + column
                    hit = 0 <= slot < len(check) and check[slot] == state
                    assert (values[slot] if hit else empty) == cell

    def test_packing_stats_consistent(self, expr_table):
        stats = displace(expr_table).packing_stats()
        assert stats["comb_slots"] == (
            stats["action_comb_slots"] + stats["goto_comb_slots"]
        )
        assert stats["populated_cells"] + stats["comb_gaps"] == stats["comb_slots"]
        assert stats["stored_cells"] < stats["dense_cells"]

    @pytest.mark.parametrize("name", ["expr", "json", "algol_like", "toy_java"])
    def test_ratio_above_one_on_corpus(self, name):
        table = build_lalr_table(corpus.load(name, augment=True))
        assert displacement_ratio(table) > 1.0

    def test_conflicted_table_still_packs(self):
        # Displacement is a storage transform: it packs the winner codes
        # of a conflicted table rather than refusing.
        table = build_lalr_table(corpus.load("dangling_else", augment=True))
        assert not table.is_deterministic
        stats = DisplacedTable(table).packing_stats()
        assert stats["populated_cells"] == table.size_cells()
        assert stats["stored_cells"] < stats["dense_cells"]
