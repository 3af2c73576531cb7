"""Integration tests: standalone-parser code generation."""

import types

import pytest

from repro.analysis import SentenceGenerator
from repro.grammar import load_grammar
from repro.grammars import corpus
from repro.parser import Parser
from repro.tables import build_lalr_table
from repro.tables.codegen import STYLES, generate_parser_module, write_parser_module


def load_generated(source: str):
    """exec the generated source into a fresh module object."""
    module = types.ModuleType("generated_parser")
    exec(compile(source, "<generated>", "exec"), module.__dict__)
    return module


def module_for(grammar_text_or_name, style="dict"):
    if grammar_text_or_name in corpus.names():
        grammar = corpus.load(grammar_text_or_name, augment=True)
    else:
        grammar = load_grammar(grammar_text_or_name).augmented()
    table = build_lalr_table(grammar)
    return grammar, table, load_generated(generate_parser_module(table, style=style))


class TestGeneration:
    def test_deterministic_output(self):
        grammar = corpus.load("expr", augment=True)
        table = build_lalr_table(grammar)
        assert generate_parser_module(table) == generate_parser_module(table)

    def test_refuses_conflicted_tables(self):
        grammar = corpus.load("dangling_else", augment=True)
        with pytest.raises(ValueError, match="conflicts"):
            generate_parser_module(build_lalr_table(grammar))

    def test_refuses_non_augmented(self):
        from array import array

        from repro.tables.table import ParseTable

        grammar = load_grammar("S -> a")
        ids = grammar.ids
        fake = ParseTable(
            grammar,
            "lalr1",
            array("i", [0]) * ids.num_terminals,
            array("i", [-1]) * ids.num_nonterminals,
            [],
        )
        with pytest.raises(ValueError, match="augmented"):
            generate_parser_module(fake)

    def test_write_to_file(self, tmp_path):
        grammar = load_grammar("S -> a b").augmented()
        path = tmp_path / "parser_gen.py"
        write_parser_module(build_lalr_table(grammar), str(path), name="ab")
        source = path.read_text()
        assert "GENERATED" in source and "'ab'" in source

    def test_no_repro_imports_in_output(self):
        grammar = load_grammar("S -> a").augmented()
        source = generate_parser_module(build_lalr_table(grammar))
        assert "import repro" not in source
        assert "from repro" not in source


class TestGeneratedBehaviour:
    def test_accepts_matches_engine(self):
        grammar, table, module = module_for("expr")
        engine = Parser(table)
        good = ["id", "id + id * id", "( id + id ) * id"]
        bad = ["", "id +", "( id", "id id"]
        for sentence in good:
            assert module.accepts(sentence.split()), sentence
            assert engine.accepts(sentence.split())
        for sentence in bad:
            assert not module.accepts(sentence.split()), sentence

    def test_agreement_on_generated_sentences(self):
        grammar, table, module = module_for("json")
        engine = Parser(table)
        generator = SentenceGenerator(grammar, seed=6)
        for sentence in generator.sentences(20, budget=15):
            names = [s.name for s in sentence]
            assert module.accepts(names)
            assert engine.accepts(sentence)

    def test_default_tree_shape(self):
        grammar, table, module = module_for("S -> S a | b")
        # b a a => (p, (p, (p, 'b'), 'a'), 'a') with production indices.
        tree = module.parse(["b", "a", "a"])
        recursive = next(
            p.index for p in grammar.productions
            if p.index > 0 and len(p.rhs) == 2
        )
        base = next(
            p.index for p in grammar.productions
            if len(p.rhs) == 1 and p.rhs[0].is_terminal
        )
        assert tree == (recursive, (recursive, (base, "b"), "a"), "a")

    def test_token_value_pairs(self):
        grammar, table, module = module_for("S -> NUM")
        result = module.parse([("NUM", 42)])
        assert result[1] == 42

    def test_semantic_actions(self):
        grammar, table, module = module_for(
            "E -> E + T | T\nT -> NUM"
        )

        def reduce_fn(production_index, children):
            lhs, arity, rhs = module.PRODUCTIONS[production_index]
            if rhs == ("E", "+", "T"):
                return children[0] + children[2]
            return children[0]

        tokens = [("NUM", 1), ("+", None), ("NUM", 2), ("+", None), ("NUM", 39)]
        assert module.parse(tokens, reduce_fn=reduce_fn) == 42

    def test_shift_fn(self):
        grammar, table, module = module_for("S -> a a")
        result = module.parse(
            ["a", "a"],
            reduce_fn=lambda i, children: sum(children),
            shift_fn=lambda name, value: 21,
        )
        assert result == 42

    def test_error_reporting(self):
        grammar, table, module = module_for("S -> a b")
        with pytest.raises(module.SyntaxErrorLR) as info:
            module.parse(["a", "a"])
        assert info.value.position == 1
        assert info.value.expected == {"b"}

    def test_error_at_eof(self):
        grammar, table, module = module_for("S -> a b")
        with pytest.raises(module.SyntaxErrorLR, match="end of input"):
            module.parse(["a"])

    def test_exhaustive_agreement_small_grammar(self):
        from repro.analysis.enumerate import all_strings

        grammar, table, module = module_for("S -> a S b | %empty")
        engine = Parser(table)
        terminals = [t for t in grammar.terminals if not t.is_eof]
        for candidate in all_strings(terminals, 6):
            names = [s.name for s in candidate]
            assert module.accepts(names) == engine.accepts(list(candidate)), names


class TestStyles:
    """The dense and displace styles behave identically to dict."""

    @pytest.mark.parametrize("style", STYLES)
    def test_deterministic_output_per_style(self, style):
        table = build_lalr_table(corpus.load("expr", augment=True))
        assert generate_parser_module(table, style=style) == (
            generate_parser_module(table, style=style)
        )

    def test_unknown_style_rejected(self):
        table = build_lalr_table(corpus.load("expr", augment=True))
        with pytest.raises(ValueError, match="style"):
            generate_parser_module(table, style="yacc")

    @pytest.mark.parametrize("style", ["dense", "displace"])
    def test_no_repro_imports(self, style):
        table = build_lalr_table(corpus.load("expr", augment=True))
        source = generate_parser_module(table, style=style)
        assert "import repro" not in source
        assert "from repro" not in source
        assert "from array import array" in source

    @pytest.mark.parametrize("style", STYLES)
    def test_agreement_with_engine_on_sentences(self, style):
        grammar, table, module = module_for("json", style=style)
        engine = Parser(table)
        generator = SentenceGenerator(grammar, seed=9)
        for sentence in generator.sentences(15, budget=12):
            names = [s.name for s in sentence]
            assert module.accepts(names), names
            assert engine.accepts(sentence)

    @pytest.mark.parametrize("style", STYLES)
    def test_tree_identical_across_styles(self, style):
        _, _, reference = module_for("expr", style="dict")
        _, _, module = module_for("expr", style=style)
        tokens = ["id", "+", "id", "*", "(", "id", ")"]
        assert module.parse(tokens) == reference.parse(tokens)

    @pytest.mark.parametrize("style", STYLES)
    def test_productions_shape_stable(self, style):
        _, table, module = module_for("expr", style=style)
        assert len(module.PRODUCTIONS) == len(table.grammar.productions)
        for lhs_name, arity, rhs_names in module.PRODUCTIONS:
            assert isinstance(lhs_name, str)
            assert arity == len(rhs_names)

    @pytest.mark.parametrize("style", STYLES)
    def test_semantic_actions_across_styles(self, style):
        _, _, module = module_for("E -> E + T | T\nT -> NUM", style=style)

        def reduce_fn(production_index, children):
            lhs, arity, rhs = module.PRODUCTIONS[production_index]
            if rhs == ("E", "+", "T"):
                return children[0] + children[2]
            return children[0]

        tokens = [("NUM", 1), ("+", None), ("NUM", 2), ("+", None), ("NUM", 39)]
        assert module.parse(tokens, reduce_fn=reduce_fn) == 42


class TestLazyTokenConsumption:
    """Regression: the driver used to materialise the whole token stream
    into a list before parsing, so unbounded generators never parsed and
    peak memory was O(input length)."""

    @pytest.mark.parametrize("style", STYLES)
    def test_error_raised_without_draining_the_stream(self, style):
        _, _, module = module_for("S -> a b", style=style)
        pulled = []

        def unbounded():
            yield "a"
            yield "a"  # syntax error here: 'b' expected
            while True:
                pulled.append(1)
                yield "a"

        with pytest.raises(module.SyntaxErrorLR) as info:
            module.parse(unbounded())
        assert info.value.position == 1
        # One lookahead token beyond the error point at most.
        assert len(pulled) <= 1

    @pytest.mark.parametrize("style", STYLES)
    def test_pulls_only_parse_prefix(self, style):
        _, _, module = module_for("S -> a b", style=style)
        consumed = []

        def stream():
            for name in ["a", "x", "never", "never"]:
                consumed.append(name)
                yield name

        with pytest.raises(module.SyntaxErrorLR):
            module.parse(stream())
        assert consumed == ["a", "x"]

    @pytest.mark.parametrize("style", STYLES)
    def test_generator_input_parses(self, style):
        _, _, module = module_for("expr", style=style)
        tokens = (name for name in ["id", "+", "id"])
        assert module.parse(tokens) is not None


class TestEngineMessageParity:
    """Generated drivers must report byte-identical syntax errors to the
    engine — message text, position, and (display-named) expected set —
    including the "end of input" spelling of the end marker."""

    @pytest.mark.parametrize("style", STYLES)
    def test_message_parity_on_corpus(self, style, corpus_grammar):
        grammar = corpus_grammar.augmented()
        table = build_lalr_table(grammar)
        if not table.is_deterministic:
            pytest.skip("needs a deterministic LALR table")
        module = load_generated(generate_parser_module(table, style=style))
        engine = Parser(table)
        terminals = [t for t in grammar.terminals if t is not grammar.eof]

        generator = SentenceGenerator(grammar, seed=17)
        streams = [[]]
        for sentence in generator.sentences(6, budget=8):
            names = [s.name for s in sentence]
            streams.append(names[:-1])
            for i in range(len(names)):
                # Stay inside the terminal alphabet: unknown names take
                # the engine's "unknown terminal" path by design.
                streams.append(
                    names[:i] + [terminals[i % len(terminals)].name] + names[i + 1:]
                )

        from repro.parser import ParseError

        compared = 0
        for stream in streams:
            try:
                engine.parse(list(stream))
                engine_error = None
            except ParseError as error:
                engine_error = error
            try:
                module.parse(list(stream))
                module_error = None
            except module.SyntaxErrorLR as error:
                module_error = error
            if engine_error is None:
                assert module_error is None, stream
                continue
            assert module_error is not None, stream
            assert str(module_error) == str(engine_error), stream
            assert module_error.position == engine_error.position
            compared += 1
        assert compared > 0

    @pytest.mark.parametrize("style", STYLES)
    def test_expected_attribute_uses_display_names(self, style):
        _, _, module = module_for("S -> a", style=style)
        with pytest.raises(module.SyntaxErrorLR) as info:
            module.parse(["a", "a"])
        assert info.value.expected == {"end of input"}
        assert "$end" not in str(info.value)
