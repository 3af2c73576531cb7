"""Unit tests: Production, Grammar, augmentation, precedence container."""

import pytest

from repro.grammar import (
    Assoc,
    GrammarBuilder,
    GrammarValidationError,
    Precedence,
    ProductionError,
    grammar_from_rules,
)
from repro.grammar.grammar import Grammar
from repro.grammar.production import Production
from repro.grammar.symbols import EOF_NAME, SymbolTable


def simple_grammar():
    return grammar_from_rules(
        [("S", ["A", "b"]), ("A", ["a"]), ("A", [])], start="S", name="simple"
    )


class TestProduction:
    def test_lhs_must_be_nonterminal(self):
        table = SymbolTable()
        a = table.terminal("a")
        with pytest.raises(ProductionError):
            Production(0, a, ())

    def test_epsilon_flag(self):
        table = SymbolTable()
        s = table.nonterminal("S")
        assert Production(0, s, ()).is_epsilon
        assert not Production(0, s, (table.terminal("a"),)).is_epsilon

    def test_str_epsilon(self):
        table = SymbolTable()
        s = table.nonterminal("S")
        assert str(Production(0, s, ())) == "S -> %empty"

    def test_str_symbols(self):
        table = SymbolTable()
        s = table.nonterminal("S")
        a, b = table.terminal("a"), table.terminal("b")
        assert str(Production(0, s, (a, b))) == "S -> a b"

    def test_default_prec_symbol_is_rightmost_terminal(self):
        table = SymbolTable()
        s = table.nonterminal("S")
        a, b = table.terminal("a"), table.terminal("b")
        production = Production(0, s, (a, s, b, s))
        assert production.prec_symbol is b

    def test_no_terminal_means_no_prec(self):
        table = SymbolTable()
        s = table.nonterminal("S")
        assert Production(0, s, (s, s)).prec_symbol is None

    def test_len(self):
        table = SymbolTable()
        s = table.nonterminal("S")
        assert len(Production(0, s, (table.terminal("a"),) * 3)) == 3


class TestGrammar:
    def test_productions_for(self):
        grammar = simple_grammar()
        a = grammar.symbols["A"]
        assert len(grammar.productions_for(a)) == 2

    def test_productions_for_start(self):
        grammar = simple_grammar()
        assert len(grammar.productions_for(grammar.start)) == 1

    def test_empty_grammar_rejected(self):
        table = SymbolTable()
        s = table.nonterminal("S")
        with pytest.raises(GrammarValidationError):
            Grammar(table, [], s)

    def test_terminal_start_rejected(self):
        table = SymbolTable()
        s = table.nonterminal("S")
        a = table.terminal("a")
        production = Production(0, s, (a,))
        with pytest.raises(GrammarValidationError):
            Grammar(table, [production], a)

    def test_foreign_symbol_rejected(self):
        table = SymbolTable()
        s = table.nonterminal("S")
        other = SymbolTable()
        foreign = other.terminal("x")
        production = Production(0, s, (foreign,))
        with pytest.raises(ProductionError):
            Grammar(table, [production], s)

    def test_stats(self):
        stats = simple_grammar().stats()
        assert stats == {
            "terminals": 2,
            "nonterminals": 2,
            "productions": 3,
            "rhs_symbols": 3,
        }

    def test_iter_and_len(self):
        grammar = simple_grammar()
        assert len(grammar) == 3
        assert len(list(grammar)) == 3

    def test_str_contains_start_and_rules(self):
        text = str(simple_grammar())
        assert "start: S" in text
        assert "S -> A b" in text


class TestAugmentation:
    def test_not_augmented_initially(self):
        assert not simple_grammar().is_augmented

    def test_augmented_shape(self):
        grammar = simple_grammar().augmented()
        assert grammar.is_augmented
        p0 = grammar.productions[0]
        assert p0.lhs is grammar.start
        assert p0.rhs[0].name == "S"
        assert p0.rhs[1].name == EOF_NAME

    def test_augmenting_twice_is_identity(self):
        grammar = simple_grammar().augmented()
        assert grammar.augmented() is grammar

    def test_indices_shift_by_one(self):
        original = simple_grammar()
        augmented = original.augmented()
        assert [str(p) for p in augmented.productions[1:]] == [
            str(p) for p in original.productions
        ]
        assert [p.index for p in augmented.productions] == [0, 1, 2, 3]

    def test_original_start(self):
        original = simple_grammar()
        augmented = original.augmented()
        assert augmented.original_start is original.start
        assert original.original_start is original.start

    def test_eof_property(self):
        augmented = simple_grammar().augmented()
        assert augmented.eof.is_eof

    def test_fresh_start_collision_avoided(self):
        builder = GrammarBuilder()
        builder.rule("S", ["S'", "a"])
        builder.rule("S'", ["b"])
        grammar = builder.build(start="S").augmented()
        assert grammar.start.name == "S''"

    def test_repeated_augmentation_returns_one_copy(self):
        # Augmentation mints its start symbol in the shared symbol table,
        # so a second copy would start at E'' with another fingerprint.
        from repro.grammar.fingerprint import grammar_fingerprint
        from repro.grammars import corpus

        grammar = corpus.load("expr")
        first = grammar.augmented()
        fingerprint = grammar_fingerprint(first)
        symbols = len(grammar.symbols)
        for _ in range(500):
            again = grammar.augmented()
            assert again is first
            assert grammar_fingerprint(again) == fingerprint
        assert len(grammar.symbols) == symbols
        assert first.start.name == "E'"

    def test_held_grammar_builds_its_table_once(self, tmp_path):
        from repro.grammars import corpus
        from repro.service import parse_result
        from repro.tables import TableCache

        grammar = corpus.load("toy_java")
        cache = TableCache(str(tmp_path), hot_capacity=4)
        tokens = ["class", "ID", "{", "}"]
        first = parse_result(grammar, tokens, cache=cache)
        assert first["valid"]
        assert parse_result(grammar, tokens, cache=cache) == first
        assert cache.stores == 1
        assert cache.hot_hits == 1


class TestPrecedenceContainer:
    def test_precedence_levels_assigned_in_order(self):
        builder = GrammarBuilder()
        builder.left("+", "-")
        builder.left("*")
        builder.rule("E", ["E", "+", "E"])
        builder.rule("E", ["E", "*", "E"])
        builder.rule("E", ["x"])
        grammar = builder.build(start="E")
        plus = grammar.symbols["+"]
        star = grammar.symbols["*"]
        assert grammar.precedence[plus].level < grammar.precedence[star].level
        assert grammar.precedence[plus].assoc is Assoc.LEFT

    def test_precedence_equality(self):
        assert Precedence(1, Assoc.LEFT) == Precedence(1, Assoc.LEFT)
        assert Precedence(1, Assoc.LEFT) != Precedence(2, Assoc.LEFT)
        assert Precedence(1, Assoc.LEFT) != Precedence(1, Assoc.RIGHT)

    def test_production_set_ignores_indices(self):
        g1 = simple_grammar()
        g2 = simple_grammar()
        names1 = {(l.name, tuple(s.name for s in r)) for l, r in g1.production_set()}
        names2 = {(l.name, tuple(s.name for s in r)) for l, r in g2.production_set()}
        assert names1 == names2
