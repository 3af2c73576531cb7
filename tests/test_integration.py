"""End-to-end integration flows across the whole library surface."""

import types

import pytest

from repro import (
    LalrAnalysis,
    Lexer,
    Parser,
    build_lalr_table,
    classify,
    load_grammar,
)
from repro.analysis import SentenceGenerator, enumerate_language
from repro.baselines import (
    MergedLr1Analysis,
    NqlalrAnalysis,
    PropagationAnalysis,
    SlrAnalysis,
)
from repro.automaton import LR0Automaton
from repro.grammar import write_arrow, write_yacc
from repro.grammars import corpus
from repro.parser import CykRecognizer, RecoveringParser
from repro.tables import GrammarClass, compress, generate_parser_module
from tests.classic_lr import classic_run


class TestFullPipelinePerGrammar:
    """Grammar text -> analysis -> table -> parse -> codegen, one flow."""

    @pytest.mark.parametrize("name", ["expr", "json", "lvalue", "toy_java", "algol_like"])
    def test_pipeline(self, name):
        grammar = corpus.load(name, augment=True)

        # 1. analyse
        analysis = LalrAnalysis(grammar)
        assert analysis.la_masks and not analysis.not_lr_k

        # 2. build + compress table
        table = build_lalr_table(grammar, analysis.automaton,
                                 analysis.lookahead_table())
        assert table.is_deterministic
        compact = compress(table)

        # 3. parse generated sentences; the compressed lookup derives
        #    them identically
        generator = SentenceGenerator(grammar, seed=17)
        parser = Parser(table)
        for sentence in generator.sentences(10, budget=20):
            tree = parser.parse(sentence)
            assert [s.name for s in tree.fringe()] == [s.name for s in sentence]
            assert classic_run(compact, table, sentence) == classic_run(
                table, table, sentence
            )

        # 4. generate a standalone module and cross-check it
        module = types.ModuleType("generated")
        exec(compile(generate_parser_module(table), "<gen>", "exec"),
             module.__dict__)
        for sentence in generator.sentences(5, budget=15):
            assert module.accepts([s.name for s in sentence])

    @pytest.mark.parametrize("name", ["expr", "lvalue", "lr0_demo"])
    def test_round_trip_through_both_text_formats(self, name):
        original = corpus.load(name)
        for renderer in (write_arrow, write_yacc):
            reparsed = load_grammar(renderer(original))
            assert classify(reparsed).grammar_class == classify(original).grammar_class

    def test_all_lookahead_methods_build_identical_tables(self):
        grammar = corpus.load("toy_java", augment=True)
        automaton = LR0Automaton(grammar)
        tables = [
            build_lalr_table(grammar, automaton, method(grammar, automaton).lookahead_table())
            for method in (LalrAnalysis, MergedLr1Analysis, PropagationAnalysis)
        ]
        for other in tables[1:]:
            assert other.actions == tables[0].actions
            assert other.gotos == tables[0].gotos


class TestOracleTriangle:
    """LR engine vs CYK vs exhaustive enumeration must all agree."""

    @pytest.mark.parametrize("text,bound", [
        ("S -> a S b | a b", 6),
        ("S -> A B\nA -> a A | %empty\nB -> b B | b", 5),
        ("S -> S + S1 | S1\nS1 -> x | ( S )", 5),
    ])
    def test_three_way_agreement(self, text, bound):
        from repro.analysis.enumerate import all_strings
        from repro.tables import build_clr_table

        grammar = load_grammar(text)
        augmented = grammar.augmented()
        table = build_clr_table(augmented)
        assert table.is_deterministic
        parser = Parser(table)
        cyk = CykRecognizer(grammar)
        language = {
            tuple(s.name for s in sentence)
            for sentence in enumerate_language(grammar, bound)
        }
        terminals = [t for t in augmented.terminals if not t.is_eof]
        for candidate in all_strings(terminals, bound):
            name_tuple = tuple(s.name for s in candidate)
            in_language = name_tuple in language
            assert parser.accepts(list(candidate)) == in_language, name_tuple
            assert cyk.accepts(name_tuple) == in_language, name_tuple


class TestWorkbenchFlow:
    """The grammar-author story: diagnose, fix, re-check."""

    def test_conflict_diagnosis_and_fix(self):
        # Author writes an ambiguous grammar...
        draft = load_grammar("stmt -> if e then stmt | if e then stmt else stmt | x")
        verdict = classify(draft)
        assert verdict.grammar_class is GrammarClass.NOT_LR1

        # ...reads the conflicts...
        table = build_lalr_table(draft.augmented())
        assert any(c.kind == "shift/reduce" for c in table.unresolved_conflicts)

        # ...rewrites with matched/unmatched...
        fixed = load_grammar("""
stmt -> matched | unmatched
matched -> if e then matched else matched | x
unmatched -> if e then stmt | if e then matched else unmatched
""")
        assert classify(fixed).is_lalr1

        # ...and both grammars still generate the same bounded language.
        from repro.analysis.enumerate import bounded_language_equal

        assert bounded_language_equal(draft, fixed, 9)

    def test_batch_error_checking(self):
        grammar = load_grammar("""
%token ID NUM
%start stmts
%%
stmts : stmt | stmts stmt ;
stmt : ID '=' NUM ';' ;
""").augmented()
        checker = RecoveringParser(Parser(build_lalr_table(grammar)), [";"])
        source_tokens = "ID = NUM ; ID NUM ; ID = NUM ; = ; ID = NUM ;".split()
        errors = checker.check(source_tokens)
        # position 5: `ID NUM` (missing =); position 11: statement `= ;`.
        assert [e.position for e in errors] == [5, 11]

    def test_nqlalr_would_have_lied(self):
        grammar = corpus.load("nqlalr_trap", augment=True)
        automaton = LR0Automaton(grammar)
        exact = build_lalr_table(grammar, automaton)
        loose = build_lalr_table(
            grammar, automaton, NqlalrAnalysis(grammar, automaton).lookahead_table()
        )
        slr = build_lalr_table(
            grammar, automaton, SlrAnalysis(grammar, automaton).lookahead_table()
        )
        assert exact.is_deterministic
        assert not loose.is_deterministic
        assert not slr.is_deterministic  # SLR fails here too: FOLLOW merges more
