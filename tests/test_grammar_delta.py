"""Unit tests: edit classification and the grammar edit constructors.

``repro.grammar.delta`` is the gatekeeper of the incremental pipeline:
an ``rhs`` verdict licenses the splice chain to reuse bitmasks, packed
items and dense symbol IDs object-for-object, so the classifier must
never report ``rhs`` when the symbol layout moved — and the edit
constructors must produce grammars that share the original's symbols.
"""

import pytest

from repro.grammar import load_grammar
from repro.grammar.delta import (
    DeltaKind,
    add_production,
    classify,
    remove_production,
    replace_rhs,
)

EXPR = """
E -> E + T | T
T -> T * F | F
F -> ( E ) | id
"""


@pytest.fixture
def grammar():
    return load_grammar(EXPR, name="expr").augmented()


class TestClassify:
    def test_same_object_is_identical(self, grammar):
        delta = classify(grammar, grammar)
        assert delta.kind == DeltaKind.IDENTICAL
        assert delta.is_identical

    def test_rhs_edit(self, grammar):
        edited = replace_rhs(grammar, 6, ["("])  # F -> id  =>  F -> (
        delta = classify(grammar, edited)
        assert delta.kind == DeltaKind.RHS
        assert delta.is_incremental
        assert delta.changed == (6,)
        assert {s.name for s in delta.dirty_nonterminals} == {"F"}

    def test_rhs_edit_shares_symbol_objects(self, grammar):
        edited = replace_rhs(grammar, 6, ["("])
        assert edited.symbols is grammar.symbols
        assert all(
            a is b for a, b in zip(grammar.ids.by_sid, edited.ids.by_sid)
        )

    def test_unchanged_rebuild_is_identical(self, grammar):
        # Replacing a rhs with itself produces a fresh Grammar object
        # whose content is unchanged: identical, not rhs.
        production = grammar.productions[6]
        edited = replace_rhs(grammar, 6, [s.name for s in production.rhs])
        assert classify(grammar, edited).kind == DeltaKind.IDENTICAL

    def test_add_production_is_add_remove(self, grammar):
        edited = add_production(grammar, "F", ["id", "id"])
        assert classify(grammar, edited).kind == DeltaKind.ADD_REMOVE

    def test_remove_production_is_add_remove(self, grammar):
        edited = remove_production(grammar, 6)
        assert classify(grammar, edited).kind == DeltaKind.ADD_REMOVE

    def test_new_terminal_is_terminal_set(self, grammar):
        # A name never seen as an lhs interns as a fresh terminal; the
        # layout grows and the delta must demand a full rebuild.
        edited = replace_rhs(grammar, 6, ["brand_new_terminal"])
        assert classify(grammar, edited).kind == DeltaKind.TERMINALS

    def test_prec_pin_is_rhs(self, grammar):
        production = grammar.productions[3]  # T -> T * F
        edited = replace_rhs(
            grammar, 3, [s.name for s in production.rhs], prec_symbol="+"
        )
        delta = classify(grammar, edited)
        assert delta.kind == DeltaKind.RHS
        assert delta.changed == (3,)

    def test_independent_loads_are_structural(self):
        # Two independent parses intern distinct Symbol objects: never
        # spliceable, whatever the text says.
        first = load_grammar(EXPR).augmented()
        second = load_grammar(EXPR).augmented()
        delta = classify(first, second)
        assert delta.kind in (DeltaKind.STRUCTURAL, DeltaKind.TERMINALS)

    def test_multi_edit_lists_every_changed_index(self, grammar):
        edited = replace_rhs(grammar, 6, ["("])
        edited = replace_rhs(edited, 4, ["F", "*", "F"])
        delta = classify(grammar, edited)
        assert delta.kind == DeltaKind.RHS
        assert delta.changed == (4, 6)
        assert {s.name for s in delta.dirty_nonterminals} == {"T", "F"}


class TestEditConstructors:
    def test_replace_refuses_augmented_start(self, grammar):
        with pytest.raises(ValueError):
            replace_rhs(grammar, 0, ["E"])

    def test_remove_refuses_augmented_start(self, grammar):
        with pytest.raises(ValueError):
            remove_production(grammar, 0)

    def test_add_refuses_terminal_lhs(self, grammar):
        with pytest.raises(ValueError):
            add_production(grammar, "id", ["E"])

    def test_untouched_productions_survive_verbatim(self, grammar):
        edited = replace_rhs(grammar, 6, ["("])
        for index, (p, q) in enumerate(
            zip(grammar.productions, edited.productions)
        ):
            if index == 6:
                continue
            assert p.lhs is q.lhs and p.rhs == q.rhs
            assert p.prec_symbol is q.prec_symbol

    def test_add_appends_at_the_end(self, grammar):
        edited = add_production(grammar, "F", ["id", "id"])
        assert len(edited.productions) == len(grammar.productions) + 1
        appended = edited.productions[-1]
        assert appended.lhs.name == "F"
        assert [s.name for s in appended.rhs] == ["id", "id"]

    def test_remove_reindexes(self, grammar):
        edited = remove_production(grammar, 3)
        assert len(edited.productions) == len(grammar.productions) - 1
        assert [p.index for p in edited.productions] == list(
            range(len(edited.productions))
        )


class TestIndexRange:
    """Indices are positions in ``range(len(productions))``: a negative
    index must not wrap round to the augmented start production (or
    silently to the last rule)."""

    # The augmented expression grammar has 7 rules: -7 names production
    # 0, the augmented start production; -1 names the last rule.
    @pytest.mark.parametrize("index", [-7, -6, -1])
    def test_replace_rejects_negative_indices(self, grammar, index):
        assert len(grammar.productions) == 7
        with pytest.raises(IndexError):
            replace_rhs(grammar, index, ["id"])

    @pytest.mark.parametrize("index", [-7, -6, -1])
    def test_remove_rejects_negative_indices(self, grammar, index):
        with pytest.raises(IndexError):
            remove_production(grammar, index)

    def test_past_the_end_is_an_index_error(self, grammar):
        with pytest.raises(IndexError):
            replace_rhs(grammar, len(grammar.productions), ["id"])
        with pytest.raises(IndexError):
            remove_production(grammar, len(grammar.productions))

    def test_rejected_edit_interns_nothing(self, grammar):
        symbols = len(grammar.symbols)
        with pytest.raises(IndexError):
            replace_rhs(grammar, -1, ["never_seen"])
        assert len(grammar.symbols) == symbols

    def test_plain_grammar_may_edit_production_zero(self):
        plain = load_grammar(EXPR)
        edited = replace_rhs(plain, 0, ["T"])
        assert [s.name for s in edited.productions[0].rhs] == ["T"]
        with pytest.raises(IndexError):
            replace_rhs(plain, -1, ["T"])


class TestSharing:
    """Edits over an unchanged layout share the parent's unchanged rules
    and its symbol-ID layout; nothing about the parent changes."""

    @staticmethod
    def _bindings(grammar):
        return [
            (p.ids, p.lhs_sid, list(p.rhs_sids)) for p in grammar.productions
        ]

    def test_rhs_edit_shares_unchanged_rules_and_layout(self, grammar):
        arrays = [p.rhs_sids for p in grammar.productions]
        edited = replace_rhs(grammar, 6, ["("])
        assert edited.ids is grammar.ids
        # Shared rules are not bound again: their ID arrays are the same
        # objects.
        assert all(
            p.rhs_sids is before
            for p, before in zip(grammar.productions, arrays)
        )
        for index, (p, q) in enumerate(
            zip(grammar.productions, edited.productions)
        ):
            assert (p is q) == (index != 6)
        assert edited.productions[6].ids is grammar.ids

    def test_building_an_edit_leaves_the_parent_bound_as_it_was(self, grammar):
        before = self._bindings(grammar)
        replace_rhs(grammar, 6, ["("])
        remove_production(grammar, 3)
        add_production(grammar, "F", ["id", "id"])
        assert self._bindings(grammar) == before

    def test_remove_shares_only_rules_that_keep_their_index(self, grammar):
        edited = remove_production(grammar, 3)
        assert edited.ids is grammar.ids
        for index, production in enumerate(edited.productions):
            assert production.index == index
            assert (production is grammar.productions[index]) == (index < 3)

    def test_add_shares_every_existing_rule(self, grammar):
        edited = add_production(grammar, "F", ["id", "id"])
        assert edited.ids is grammar.ids
        assert all(
            p is q for p, q in zip(grammar.productions, edited.productions)
        )

    def test_new_terminal_gets_fresh_rules_and_layout(self, grammar):
        edited = replace_rhs(grammar, 6, ["brand_new_terminal"])
        assert edited.ids is not grammar.ids
        assert not any(
            p is q for p, q in zip(grammar.productions, edited.productions)
        )
        # The layout after interning differs, and the parent's rules kept
        # the IDs of the parent's layout.
        assert all(p.ids is grammar.ids for p in grammar.productions)
        assert all(q.ids is edited.ids for q in edited.productions)

    def test_new_terminal_leaves_the_parent_and_its_parses_unchanged(self, grammar):
        from repro.parser import Parser
        from repro.tables import build_lalr_table

        sentences = [["id", "+", "id", "*", "id"], ["(", "id", ")"], ["id", "+"]]

        def outcomes(g):
            parser = Parser(build_lalr_table(g))
            return [parser.accepts(s) for s in sentences]

        before_ids = self._bindings(grammar)
        before = outcomes(grammar)
        edited = replace_rhs(grammar, 6, ["brand_new_terminal"])
        assert self._bindings(grammar) == before_ids
        assert outcomes(grammar) == before == [True, True, False]
        # Edits of the parent after the interning can no longer share
        # its layout, and still leave it alone.
        again = replace_rhs(grammar, 5, ["(", "E", ")"])
        assert again.ids is not grammar.ids
        assert self._bindings(grammar) == before_ids
        assert outcomes(edited)[0] is False

    def test_constructor_copies_rules_bound_to_another_layout(self, grammar):
        from repro.grammar import Grammar

        before = self._bindings(grammar)
        grammar.symbols.terminal("brand_new_terminal")
        other = Grammar(grammar.symbols, grammar.productions, grammar.start)
        assert other.ids is not grammar.ids
        assert not any(
            p is q for p, q in zip(grammar.productions, other.productions)
        )
        assert all(q.ids is other.ids for q in other.productions)
        assert self._bindings(grammar) == before
        assert other.is_augmented

    def test_chained_edits_keep_one_layout(self, grammar):
        current = grammar
        for index, rhs in ((6, ["("]), (4, ["F", "*", "F"]), (2, ["F"])):
            current = replace_rhs(current, index, rhs)
            assert current.ids is grammar.ids
        assert classify(grammar, current).changed == (2, 4, 6)
