"""Unit + integration tests: the LR parsing engine."""

import itertools

import pytest

from repro.grammar import load_grammar
from repro.grammars import corpus
from repro.parser import ParseError, Parser, Token
from repro.tables import build_clr_table, build_lalr_table, build_lr0_table, build_slr_table


def parser_for(text_or_grammar, build=build_lalr_table):
    grammar = (
        load_grammar(text_or_grammar) if isinstance(text_or_grammar, str) else text_or_grammar
    ).augmented()
    return Parser(build(grammar)), grammar


class TestAcceptance:
    def test_accepts_simple(self):
        parser, grammar = parser_for("S -> a b")
        assert parser.accepts(["a", "b"])

    def test_rejects_truncated(self):
        parser, _ = parser_for("S -> a b")
        assert not parser.accepts(["a"])

    def test_rejects_extended(self):
        parser, _ = parser_for("S -> a b")
        assert not parser.accepts(["a", "b", "a"])

    def test_rejects_empty_when_not_nullable(self):
        parser, _ = parser_for("S -> a")
        assert not parser.accepts([])

    def test_accepts_empty_for_nullable_start(self):
        parser, _ = parser_for("S -> a S | %empty")
        assert parser.accepts([])
        assert parser.accepts(["a", "a", "a"])

    def test_expression_sentences(self, expr_augmented):
        parser = Parser(build_lalr_table(expr_augmented))
        good = [
            "id",
            "id + id",
            "id * id + id",
            "( id )",
            "( id + id ) * id",
            "id + id + id + id",
        ]
        bad = ["", "id +", "+ id", "( id", "id )", "id id", "* id"]
        for sentence in good:
            assert parser.accepts(sentence.split()), sentence
        for sentence in bad:
            assert not parser.accepts(sentence.split()), sentence

    @pytest.mark.parametrize("build", [build_slr_table, build_lalr_table, build_clr_table])
    def test_all_strong_tables_agree(self, build, expr_augmented):
        parser = Parser(build(expr_augmented))
        assert parser.accepts("id + id * id".split())
        assert not parser.accepts("id + * id".split())


class TestTokens:
    def test_symbol_tokens(self):
        parser, grammar = parser_for("S -> a")
        a = grammar.symbols["a"]
        assert parser.accepts([a])

    def test_token_objects_carry_values(self):
        parser, grammar = parser_for("S -> NUM")
        num = grammar.symbols["NUM"]
        tree = parser.parse([Token(num, 42)])
        assert tree.children[0].value == 42

    def test_unknown_terminal_rejected(self):
        parser, _ = parser_for("S -> a")
        with pytest.raises(ParseError, match="unknown terminal"):
            parser.parse(["zzz"])

    def test_nonterminal_name_rejected_as_token(self):
        parser, _ = parser_for("S -> a")
        with pytest.raises(ParseError):
            parser.parse(["S"])

    def test_bad_token_type(self):
        parser, _ = parser_for("S -> a")
        with pytest.raises(TypeError):
            parser.parse([3.14])

    def test_nonterminal_symbol_object_rejected(self):
        # A Symbol for a *nonterminal* in the token stream is a caller
        # bug (e.g. a lexer wired to the wrong vocabulary); it must fail
        # with a clear ParseError, not a confusing table lookup miss.
        parser, grammar = parser_for("S -> A\nA -> a")
        nonterminal = grammar.symbols["A"]
        with pytest.raises(ParseError, match="nonterminal 'A'") as info:
            parser.parse([nonterminal])
        assert info.value.position == 0

    def test_nonterminal_token_object_rejected(self):
        parser, grammar = parser_for("S -> A\nA -> a")
        token = Token(grammar.symbols["A"], None)
        with pytest.raises(ParseError, match="only terminals"):
            parser.parse([grammar.symbols["a"], token])


class TestTrees:
    def test_tree_root_is_start(self, expr_augmented):
        parser = Parser(build_lalr_table(expr_augmented))
        tree = parser.parse("id + id".split())
        assert tree.symbol.name == "E"

    def test_tree_fringe_reproduces_input(self, expr_augmented):
        parser = Parser(build_lalr_table(expr_augmented))
        sentence = "( id + id ) * id".split()
        tree = parser.parse(sentence)
        assert [s.name for s in tree.fringe()] == sentence

    def test_tree_structure(self):
        parser, _ = parser_for("S -> S a | b")
        tree = parser.parse(["b", "a", "a"])
        assert tree.sexpr() == "(S (S (S b) a) a)"

    def test_epsilon_node_has_no_children(self):
        parser, _ = parser_for("S -> A a\nA -> %empty")
        tree = parser.parse(["a"])
        a_node = tree.children[0]
        assert a_node.symbol.name == "A"
        assert a_node.children == []

    def test_production_recorded_on_nodes(self, expr_augmented):
        parser = Parser(build_lalr_table(expr_augmented))
        tree = parser.parse(["id"])
        for node in tree.walk():
            if not node.is_leaf:
                assert node.production is not None
                assert node.production.lhs is node.symbol


class TestActions:
    def test_semantic_fold(self):
        parser, grammar = parser_for("E -> E + T | T\nT -> NUM")
        num = grammar.symbols["NUM"]

        def act(production, children):
            if len(children) == 3:
                return children[0] + children[2]
            return children[0]

        tokens = [Token(num, 1), Token(grammar.symbols["+"], None), Token(num, 2),
                  Token(grammar.symbols["+"], None), Token(num, 3)]
        assert parser.parse_with_actions(tokens, act) == 6

    def test_shift_fn_customises_leaves(self):
        parser, grammar = parser_for("S -> a a")

        def act(production, children):
            return sum(children)

        result = parser.parse_with_actions(
            ["a", "a"], act, shift_fn=lambda token: 10
        )
        assert result == 20

    def test_trace(self):
        parser, _ = parser_for("S -> a b")
        log = parser.trace(["a", "b"])
        assert log == ["shift a", "shift b", "reduce S -> a b", "accept"]


class TestErrors:
    def test_error_position(self):
        parser, _ = parser_for("S -> a b c")
        with pytest.raises(ParseError) as info:
            parser.parse(["a", "c"])
        assert info.value.position == 1
        assert info.value.token.name == "c"

    def test_error_expected_set(self):
        parser, _ = parser_for("S -> a b")
        with pytest.raises(ParseError) as info:
            parser.parse(["a", "a"])
        assert [t.name for t in info.value.expected] == ["b"]

    def test_premature_eof_reported(self):
        parser, _ = parser_for("S -> a b")
        with pytest.raises(ParseError, match="end of input"):
            parser.parse(["a"])

    def test_error_message_mentions_expected(self):
        parser, _ = parser_for("S -> a b")
        with pytest.raises(ParseError, match="expected one of: b"):
            parser.parse(["a", "a"])

    def test_non_augmented_table_rejected(self):
        grammar = load_grammar("S -> a")
        with pytest.raises(Exception):
            # build_lalr_table augments internally, so fake a bad table by
            # constructing the parser with a table whose grammar is raw.
            from array import array

            from repro.tables.table import ParseTable

            ids = grammar.ids
            Parser(ParseTable(
                grammar,
                "lalr1",
                array("i", [0]) * ids.num_terminals,
                array("i", [-1]) * ids.num_nonterminals,
                [],
            ))


class TestStreaming:
    """The engine pulls tokens lazily from the iterator: one token of
    look-ahead, never ``list(tokens)``.  Peak memory is O(parse stack)."""

    def test_error_on_infinite_stream_terminates(self):
        # Regression: the old engine materialised the whole stream first,
        # so an unbounded generator hung before the parse even started.
        parser, _ = parser_for("S -> a b")
        with pytest.raises(ParseError) as info:
            parser.parse(itertools.repeat("a"))
        assert info.value.position == 1  # second 'a' is the offender

    def test_only_lookahead_consumed_before_error(self):
        parser, _ = parser_for("S -> a b")
        pulled = []

        def stream():
            for name in itertools.repeat("a"):
                pulled.append(name)
                yield name

        with pytest.raises(ParseError):
            parser.parse(stream())
        # One shifted token plus the erroring look-ahead; no read-ahead.
        assert len(pulled) == 2

    def test_huge_stream_with_actions(self):
        # Left recursion keeps the stack O(1), so a token stream far too
        # large to comfortably materialise parses in constant memory when
        # reductions fold values eagerly.
        parser, _ = parser_for("S -> S a | a")
        n = 300_000
        count = parser.parse_with_actions(
            itertools.repeat("a", n),
            lambda production, children: sum(
                c for c in children if isinstance(c, int)
            ),
            shift_fn=lambda token: 1,
        )
        assert count == n

    def test_accepts_generator_input(self):
        parser, _ = parser_for("S -> a b")
        assert parser.accepts(iter(["a", "b"]))
        assert not parser.accepts(iter(["a"]))


class TestLr0TableParsing:
    def test_lr0_parser_works_on_lr0_grammar(self):
        grammar = corpus.load("lr0_demo").augmented()
        parser = Parser(build_lr0_table(grammar))
        assert parser.accepts("a a b b".split())
        assert parser.accepts("b b".split())
        assert not parser.accepts("a b".split())

    def test_round_trip_with_generator(self):
        from repro.analysis import SentenceGenerator

        grammar = corpus.load("lr0_demo").augmented()
        parser = Parser(build_lr0_table(grammar))
        generator = SentenceGenerator(grammar, seed=11)
        for sentence in generator.sentences(30, budget=15):
            assert parser.accepts(sentence)
