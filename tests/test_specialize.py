"""The engine's one token loop against references that share none of it.

:class:`~repro.parser.engine.Parser` compiles every table into the
integer arrays of :class:`~repro.tables.specialize.SpecializedTable` —
flat dispatch, fused reduce→goto chains, default reductions, token
memoization — and runs a single loop over them.  Corpus-wide, for every
deterministic LALR grammar, that loop must agree with:

- the RNGLR engine on the same table: identical parse trees, and
  identical errors on mutated sentences — message, position, state and
  expected set;
- the reference tree itself: the trace is its post-order walk plus
  ``accept``, and the ``parse.*`` counters are its leaf count,
  interior-node count and the input length;
- budget exhaustion points recorded as literals while two independent
  loops agreed on them.

Plus the compilation invariants: a default reduction only on
fully-uniform reduce rows, the arrays decode back to the source table's
Symbol-keyed rows cell for cell, tables loaded from either artifact
compile to the same arrays, and panic-mode recovery over them reports
the same errors.
"""

from __future__ import annotations

import pytest

from repro.analysis.derive import SentenceGenerator
from repro.core import instrument
from repro.core.budget import Budget, BudgetExceeded
from repro.grammars import corpus
from repro.parser import GlrParser, ParseError, Parser, RecoveringParser, Token
from repro.parser.tree import count_nodes
from repro.tables import (
    SpecializedTable,
    build_lalr_table,
    specialize,
    specialized_view,
    table_from_bytes,
    table_from_dict,
    table_to_bytes,
    table_to_dict,
)
from repro.tables.table import ACTION_REDUCE, ActionDecoder, encode_action

#: Corpus grammars whose LALR table is deterministic (the engine refuses
#: conflicted tables, so parity is defined over these).
DETERMINISTIC = [
    name
    for name in corpus.names()
    if build_lalr_table(corpus.load(name).augmented()).is_deterministic
]


def _pair(name):
    """(engine parser, RNGLR reference on the same table, augmented grammar)."""
    grammar = corpus.load(name).augmented()
    table = build_lalr_table(grammar)
    return Parser(table), GlrParser(table), grammar


def _representations(table):
    """*table* and its JSON and binary artifact round-trips, labelled."""
    return [
        ("dense", table),
        ("json", table_from_dict(table_to_dict(table), table.grammar)),
        ("binary", table_from_bytes(table_to_bytes(table), table.grammar)),
    ]


def _sentences(grammar, count=6, budget=30):
    return SentenceGenerator(grammar, seed=0).sentences(count, budget=budget)


def _mutants(grammar, sentences):
    """Deterministic invalid-ish streams inside the terminal alphabet."""
    terminals = sorted(
        (t for t in grammar.terminals if t is not grammar.eof),
        key=lambda s: s.name,
    )
    streams = []
    for index, sentence in enumerate(sentences):
        wrong = terminals[index % len(terminals)]
        streams.append(list(sentence) + [wrong])
        if sentence:
            streams.append(list(sentence[:-1]))
            swapped = list(sentence)
            swapped[index % len(swapped)] = wrong
            streams.append(swapped)
    streams.append([])
    return streams


def _error_of(parser, tokens):
    try:
        parser.parse(tokens)
    except ParseError as error:
        return (
            str(error),
            error.position,
            error.state,
            [s.name for s in error.expected],
            error.token.name if error.token is not None else None,
        )
    return None


def _post_order(node):
    """The shift/reduce lines an LR parse of *node*'s fringe emits."""
    if node.is_leaf:
        return [f"shift {node.symbol.name}"]
    lines = []
    for child in node.children:
        lines.extend(_post_order(child))
    lines.append(f"reduce {node.production}")
    return lines


def _budget_outcome(parser, tokens, budget):
    try:
        parser.parse(tokens, budget=budget)
    except BudgetExceeded as error:
        return (error.phase, error.resource, error.limit, error.progress)
    return None


class TestTreeParity:
    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_trees_identical_corpus_wide(self, name):
        parser, glr, grammar = _pair(name)
        for sentence in _sentences(grammar):
            reference = glr.parse(sentence)
            tree = parser.parse(sentence)
            assert tree.format() == reference.format()
            assert tree.derivation() == reference.derivation()
            assert tree.fringe() == reference.fringe()

    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_traces_identical(self, name):
        parser, glr, grammar = _pair(name)
        for sentence in _sentences(grammar, count=3):
            expected = _post_order(glr.parse(sentence)) + ["accept"]
            assert parser.trace(sentence) == expected

    def test_token_values_survive_memoization(self):
        # The loop memoizes *string* tokens; Token objects with semantic
        # values must bypass the cache untouched.
        grammar = corpus.load("expr").augmented()
        parser = Parser(build_lalr_table(grammar))
        id_symbol = grammar.symbols["id"]
        tokens = [Token(id_symbol, 1), "+", Token(id_symbol, 2)]
        for _ in range(2):  # the second parse runs on a warm memo
            values = [leaf.value for leaf in parser.parse(tokens).leaves()]
            assert values == [1, "+", 2]

    def test_repeated_tokens_hit_the_cache_consistently(self):
        parser, glr, _ = _pair("expr")
        tokens = "id + id * id + id * id".split()
        expected = glr.parse(tokens).format()
        for _ in range(3):  # reuse the same parser: warm-cache parses
            assert parser.parse(tokens).format() == expected


class TestErrorParity:
    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_errors_identical_on_mutants(self, name):
        parser, glr, grammar = _pair(name)
        sentences = _sentences(grammar)
        for stream in _mutants(grammar, sentences):
            assert _error_of(parser, stream) == _error_of(glr, stream), stream

    def test_unknown_terminal_path_identical(self):
        parser, glr, _ = _pair("expr")
        assert _error_of(parser, ["id", "zzz"]) == _error_of(glr, ["id", "zzz"])

    def test_error_caching_never_caches_failures(self):
        # An unknown terminal must fail identically on every attempt —
        # the memo only stores successful resolutions.
        parser, _, _ = _pair("expr")
        first = _error_of(parser, ["zzz"])
        second = _error_of(parser, ["zzz"])
        assert first == second is not None


class TestBudgetParity:
    """Exhaustion points as literals: recorded while the Action-object
    interpreter and the integer loop ran side by side and agreed."""

    @pytest.mark.parametrize(
        "cap, progress",
        [
            (1, {"tokens": 1, "parse_steps": 2, "checks": 4}),
            (3, {"tokens": 2, "parse_steps": 4, "checks": 7}),
            (7, {"tokens": 4, "parse_steps": 8, "checks": 13}),
        ],
        ids=["1", "3", "7"],
    )
    def test_parse_step_exhaustion_point_identical(self, cap, progress):
        parser, _, _ = _pair("expr")
        tokens = "( id + id ) * id".split()
        assert _budget_outcome(
            parser, tokens, Budget(max_parse_steps=cap)
        ) == ("parse", "max_parse_steps", cap, progress)

    def test_token_cap_identical(self):
        parser, _, _ = _pair("json")
        tokens = "{ STRING : NUMBER , STRING : true }".split()
        assert _budget_outcome(parser, tokens, Budget(max_tokens=2)) == (
            "parse",
            "max_tokens",
            2,
            {"tokens": 3, "parse_steps": 3, "checks": 7},
        )


class TestInstrumentParity:
    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_counters_identical_corpus_wide(self, name):
        parser, glr, grammar = _pair(name)
        for sentence in _sentences(grammar, count=3):
            interior, leaves = count_nodes(glr.parse(sentence))
            with instrument.profile() as collector:
                parser.parse(sentence)
            got = {k: v for k, v in collector.counters.items()
                   if k.startswith("parse.")}
            assert got == {
                "parse.tokens": len(sentence),
                "parse.shifts": leaves,
                "parse.reduces": interior,
                "parse.actions": leaves + interior,
            }


class TestRecoveryParity:
    """Panic-mode recovery over a table loaded from either artifact must
    report exactly the errors it reports over the built table."""

    def _sync_for(self, grammar):
        names = {t.name for t in grammar.terminals}
        for preferred in (";", ")", "}"):
            if preferred in names:
                return [preferred]
        return [sorted(names)[0]]

    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_recovered_error_lists_identical(self, name):
        grammar = corpus.load(name).augmented()
        table = build_lalr_table(grammar)
        sync = self._sync_for(grammar)
        checkers = [
            (label, RecoveringParser(Parser(rep), sync))
            for label, rep in _representations(table)
        ]
        for stream in _mutants(grammar, _sentences(grammar)):
            outcomes = {
                label: [
                    (str(e), e.position, e.state, [s.name for s in e.expected])
                    for e in checker.check(stream)
                ]
                for label, checker in checkers
            }
            for label, outcome in outcomes.items():
                assert outcome == outcomes["dense"], (label, stream)


class TestSpecializationInvariants:
    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_default_only_on_fully_uniform_reduce_rows(self, name):
        grammar = corpus.load(name).augmented()
        table = build_lalr_table(grammar)
        fast = specialize(table)
        width = fast.num_terminals
        terminals = grammar.ids.terminals
        for state, row in enumerate(table.actions):
            coded = [encode_action(row.get(terminal)) for terminal in terminals]
            uniform = (
                bool(coded)
                and (coded[0] & 3) == ACTION_REDUCE
                and all(code == coded[0] for code in coded)
            )
            default = fast.default_codes[state]
            if uniform:
                assert default == coded[0], state
            else:
                assert default == -1, state
            # And the flat matrix is exactly the Symbol-keyed row, encoded.
            assert fast.action_codes[state * width:(state + 1) * width] == coded

    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_parse_table_surface_parity(self, name):
        """The compiled arrays decode back to the source table's
        Symbol-keyed ``action``/``goto`` rows, cell for cell."""
        grammar = corpus.load(name).augmented()
        table = build_lalr_table(grammar)
        fast = specialize(table)
        decoder = ActionDecoder()
        ids = grammar.ids
        width, n_nts = fast.num_terminals, fast.num_nonterminals
        assert len(fast.default_codes) == table.n_states
        assert len(fast.action_codes) == table.n_states * width
        assert len(fast.goto_codes) == table.n_states * n_nts
        for state in range(table.n_states):
            for tid, terminal in enumerate(ids.terminals):
                assert decoder.decode(
                    fast.action_codes[state * width + tid]
                ) == table.action(state, terminal)
            for nt, nonterminal in enumerate(ids.nonterminals):
                target = table.goto(state, nonterminal)
                assert fast.goto_codes[state * n_nts + nt] == (
                    -1 if target is None else target
                )

    @pytest.mark.parametrize("name", corpus.names())
    def test_representations_compile_identically(self, name):
        """JSON and binary round-trip tables — conflicted ones included —
        compile to the same arrays as the built table."""
        table = build_lalr_table(corpus.load(name).augmented())
        reference = specialize(table)
        for label, rep in _representations(table)[1:]:
            compiled = specialize(rep)
            assert compiled.action_codes == reference.action_codes, label
            assert compiled.goto_codes == reference.goto_codes, label
            assert compiled.default_codes == reference.default_codes, label

    def test_stats_are_pure_functions_of_the_table(self):
        grammar = corpus.load("expr").augmented()
        table = build_lalr_table(grammar)
        stats = specialize(table).specialization_stats()
        assert stats == specialize(table).specialization_stats()
        assert stats["states"] == table.n_states
        assert stats["action_cells"] == table.n_states * grammar.ids.num_terminals
        populated = sum(len(row) for row in table.actions)
        assert stats["populated_cells"] == populated
        assert (
            stats["shift_cells"] + stats["reduce_cells"] + stats["accept_cells"]
            == populated
        )

    def test_specialized_view_is_memoized(self):
        table = build_lalr_table(corpus.load("expr").augmented())
        first = specialized_view(table)
        assert specialized_view(table) is first
        assert isinstance(first, SpecializedTable)
        assert first.source is table

    def test_specialized_view_of_specialized_is_identity(self):
        table = build_lalr_table(corpus.load("expr").augmented())
        fast = specialize(table)
        assert specialized_view(fast) is fast
        # A compiled table handed to the engine resolves to its source,
        # which diagnostics and recovery read.
        assert Parser(fast).table is table
