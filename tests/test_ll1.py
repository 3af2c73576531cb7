"""Unit tests: LL(1) analysis and the predictive parser."""

import pytest

from repro.grammar import load_grammar
from repro.ll import Ll1Analysis, LlParser, predict_set
from repro.parser import ParseError, Parser
from repro.tables import build_lalr_table

LL_EXPR = """
E -> T Etail
Etail -> + T Etail | %empty
T -> F Ttail
Ttail -> * F Ttail | %empty
F -> ( E ) | id
"""


def analysis_for(text):
    return Ll1Analysis(load_grammar(text).augmented())


class TestPredictSets:
    def test_non_nullable_is_first(self):
        analysis = analysis_for("S -> a b | c")
        predicts = [
            sorted(t.name for t in analysis.predict[p.index])
            for p in analysis.grammar.productions[1:]
        ]
        assert predicts == [["a"], ["c"]]

    def test_nullable_adds_follow(self):
        analysis = analysis_for("S -> A b\nA -> a | %empty")
        epsilon = next(
            p for p in analysis.grammar.productions if p.is_epsilon
        )
        assert sorted(t.name for t in analysis.predict[epsilon.index]) == ["b"]

    def test_predict_set_function(self):
        grammar = load_grammar("S -> A b\nA -> a | %empty").augmented()
        from repro.analysis import FirstSets, FollowSets

        first = FirstSets(grammar)
        follow = FollowSets(grammar, first)
        epsilon = next(p for p in grammar.productions if p.is_epsilon)
        assert {t.name for t in predict_set(epsilon, first, follow)} == {"b"}


class TestConflicts:
    def test_ll1_grammar_clean(self):
        analysis = analysis_for(LL_EXPR)
        assert analysis.is_ll1
        assert analysis.conflicts == []

    def test_left_recursion_conflicts(self):
        analysis = analysis_for("E -> E + T | T\nT -> id")
        assert not analysis.is_ll1
        kinds = {c.kind for c in analysis.conflicts}
        assert "FIRST/FIRST" in kinds

    def test_first_first_conflict(self):
        analysis = analysis_for("S -> a b | a c")
        (conflict,) = analysis.conflicts
        assert conflict.kind == "FIRST/FIRST"
        assert {t.name for t in conflict.terminals} == {"a"}

    def test_first_follow_conflict(self):
        # The thesis demo (section 5.8 shape): S -> A | A b; A -> a | eps.
        analysis = analysis_for("S -> A | A b\nA -> a | %empty")
        kinds = {c.kind for c in analysis.conflicts}
        assert "FIRST/FIRST" in kinds  # both alternatives can start with a
        # and the nullable A makes S's alternatives overlap via FOLLOW too.
        assert not analysis.is_ll1

    def test_classic_first_follow(self):
        analysis = analysis_for("S -> A b\nA -> b | %empty")
        (conflict,) = analysis.conflicts
        assert conflict.kind == "FIRST/FOLLOW"
        assert conflict.nonterminal.name == "A"

    def test_describe_mentions_kind(self):
        analysis = analysis_for("S -> a | a")
        text = analysis.conflicts[0].describe()
        assert "FIRST/FIRST" in text and "S" in text

    def test_dangling_else_not_ll1(self):
        from repro.grammars import corpus

        analysis = Ll1Analysis(corpus.load("dangling_else", augment=True))
        assert not analysis.is_ll1


class TestTable:
    def test_cells_reference_productions(self):
        analysis = analysis_for(LL_EXPR)
        grammar = analysis.grammar
        e = grammar.symbols["E"]
        lparen = grammar.symbols["("]
        production = analysis.production_for(e, lparen)
        assert production is not None and production.lhs is e

    def test_empty_cell_is_none(self):
        analysis = analysis_for(LL_EXPR)
        grammar = analysis.grammar
        assert analysis.production_for(grammar.symbols["E"], grammar.symbols["+"]) is None

    def test_format_table(self):
        analysis = analysis_for(LL_EXPR)
        text = analysis.format_table()
        assert "nonterminal" in text
        assert "Etail" in text


class TestLlParser:
    @pytest.fixture
    def parser(self):
        return LlParser(analysis_for(LL_EXPR))

    def test_accepts(self, parser):
        assert parser.accepts("id + id * id".split())
        assert parser.accepts("( id + id ) * id".split())

    def test_rejects(self, parser):
        for bad in ("", "id +", "+ id", "( id", "id id"):
            assert not parser.accepts(bad.split()), bad

    def test_tree_fringe(self, parser):
        sentence = "id * ( id + id )".split()
        tree = parser.parse(sentence)
        fringe = [s.name for s in tree.fringe() if s.name != "%never"]
        # Nullable tails contribute no leaves.
        assert [n for n in fringe] == sentence

    def test_tree_root(self, parser):
        assert parser.parse(["id"]).symbol.name == "E"

    def test_error_reports_expected(self, parser):
        with pytest.raises(ParseError, match="expected one of"):
            parser.parse("+ id".split())

    def test_rejects_conflicted_grammar(self):
        analysis = analysis_for("S -> a b | a c")
        with pytest.raises(ValueError, match="not LL"):
            LlParser(analysis)

    def test_allow_conflicts_override(self):
        analysis = analysis_for("S -> a b | a c")
        parser = LlParser(analysis, allow_conflicts=True)
        assert parser.accepts(["a", "b"])  # first-writer-wins picks a b

    def test_agrees_with_lr_engine(self):
        grammar = load_grammar(LL_EXPR).augmented()
        ll = LlParser(Ll1Analysis(grammar))
        lr = Parser(build_lalr_table(grammar))
        from repro.analysis import SentenceGenerator

        generator = SentenceGenerator(grammar, seed=8)
        for sentence in generator.sentences(25, budget=12):
            assert ll.accepts(sentence) and lr.accepts(sentence)
            assert ll.parse(sentence).fringe() == lr.parse(sentence).fringe()

    def test_unknown_terminal(self, parser):
        with pytest.raises(ParseError, match="unknown terminal"):
            parser.parse(["zzz"])

    def test_end_marker_in_the_input_is_rejected_where_it_stands(self):
        # The engine appends the end marker itself; read from the input
        # it must fail at its own position, as in the LR engines.
        ll = LlParser(Ll1Analysis(load_grammar("S -> a S | b").augmented()))
        with pytest.raises(ParseError) as caught:
            ll.parse(["b", "$end", "a"])
        assert caught.value.position == 1
        assert "unknown terminal '$end' at position 1" in str(caught.value)


class TestCorpusLlStatus:
    def test_lr0_demo_is_ll1(self):
        from repro.grammars import corpus

        analysis = Ll1Analysis(corpus.load("lr0_demo", augment=True))
        assert analysis.is_ll1

    def test_left_recursive_corpus_grammars_are_not_ll1(self):
        from repro.grammars import corpus

        for name in ("expr", "json", "unit_chain", "mini_c"):
            analysis = Ll1Analysis(corpus.load(name, augment=True))
            assert not analysis.is_ll1, name

    def test_ll1_and_lalr_are_incomparable_axes(self):
        # lr0_demo: LL(1) and LR(0).  lvalue: LALR(1) but not LL(1)
        # (left recursion via R -> L, L -> * R).  Both facts hold at once.
        from repro.grammars import corpus
        from repro.tables import classify, GrammarClass

        assert Ll1Analysis(corpus.load("lr0_demo", augment=True)).is_ll1
        assert classify(corpus.load("lr0_demo")).grammar_class is GrammarClass.LR0
        assert not Ll1Analysis(corpus.load("lvalue", augment=True)).is_ll1
        assert classify(corpus.load("lvalue")).grammar_class is GrammarClass.LALR1
