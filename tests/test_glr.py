"""Unit + integration tests: the GLR engine and conflicted-table flows.

The contract under test (ISSUE 10): on a deterministic table the GLR
engine is bit-for-bit the LALR engine — same trees, same diagnostics,
same budget trip points — and on a conflicted table it explores every
action, agreeing with CYK on recognition and with the tree counter on
ambiguity degree.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import SentenceGenerator
from repro.analysis.ambiguity import TreeCounter
from repro.core import instrument
from repro.core.budget import Budget, BudgetExceeded
from repro.grammar import load_grammar
from repro.grammar.errors import GrammarValidationError
from repro.grammars import corpus
from repro.grammars.random_gen import random_grammar
from repro.parser import ConflictedTableError, CykRecognizer, GlrParser, ParseError, Parser
from repro.tables import (
    build_lalr_table,
    nondet_view,
    table_from_bytes,
    table_from_dict,
    table_to_bytes,
    table_to_dict,
)


def _tables():
    out = {}
    for name in corpus.names():
        out[name] = build_lalr_table(corpus.load(name).augmented())
    return out


_TABLES = _tables()
DETERMINISTIC = sorted(n for n, t in _TABLES.items() if t.is_deterministic)
CONFLICTED = sorted(n for n, t in _TABLES.items() if not t.is_deterministic)


_random_grammars = st.builds(
    lambda seed, nts, ts, eps: random_grammar(
        seed, n_nonterminals=nts, n_terminals=ts, epsilon_weight=eps
    ),
    seed=st.integers(min_value=0, max_value=10_000),
    nts=st.integers(min_value=2, max_value=5),
    ts=st.integers(min_value=2, max_value=4),
    eps=st.floats(min_value=0.0, max_value=0.4),
)


def _streams(grammar, count=6, budget=16):
    """Seed-0 sentences plus deterministic mutants (truncated, swapped,
    empty) — the same shape the glr-parity fuzz oracle replays."""
    sentences = SentenceGenerator(grammar, seed=0).sentences(count, budget=budget)
    terminals = sorted(
        (t for t in grammar.terminals if t is not grammar.eof),
        key=lambda s: s.name,
    )
    streams = [[s.name for s in sentence] for sentence in sentences]
    for index, sentence in enumerate(sentences):
        if sentence:
            streams.append([s.name for s in sentence[:-1]])
            swapped = [s.name for s in sentence]
            swapped[index % len(swapped)] = terminals[index % len(terminals)].name
            streams.append(swapped)
    streams.append([])
    return streams


def _outcome(parse, words):
    try:
        return ("tree", parse(list(words)).sexpr())
    except ParseError as error:
        return ("error", str(error), error.position,
                [s.name for s in error.expected])


class TestDeterministicParity:
    """On deterministic tables the GSS is a chain: GLR == LALR, bitwise."""

    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_trees_and_errors_identical(self, name):
        table = _TABLES[name]
        lalr, glr = Parser(table), GlrParser(table)
        for words in _streams(table.grammar):
            assert _outcome(glr.parse, words) == _outcome(lalr.parse, words)

    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_forest_holds_exactly_one_tree(self, name):
        table = _TABLES[name]
        lalr, glr = Parser(table), GlrParser(table)
        for words in _streams(table.grammar):
            if not lalr.accepts(list(words)):
                continue
            forest = glr.parse_forest(list(words))
            assert forest.tree_count(limit=3) == 1
            assert not forest.is_ambiguous

    def test_budget_trips_at_the_same_token(self):
        table = _TABLES["expr"]
        words = "id + id * id + id".split()
        trips = []
        for engine in (Parser(table), GlrParser(table)):
            with pytest.raises(BudgetExceeded) as info:
                engine.parse(words, budget=Budget(max_tokens=3))
            trips.append(
                (info.value.resource, info.value.limit,
                 info.value.progress.get("tokens"))
            )
        assert trips[0] == trips[1] == ("max_tokens", 3, 4)


class TestConflictedRecognition:
    """On conflicted tables GLR explores every action: CYK is the oracle."""

    @pytest.mark.parametrize("name", CONFLICTED)
    def test_agrees_with_cyk(self, name):
        table = _TABLES[name]
        glr = GlrParser(table)
        cyk = CykRecognizer(corpus.load(name))
        for words in _streams(table.grammar, count=4, budget=12):
            assert glr.accepts(list(words)) == cyk.accepts(list(words)), words

    @pytest.mark.parametrize("name", CONFLICTED)
    def test_ambiguity_degree_matches_tree_counter(self, name):
        raw = corpus.load(name)
        try:
            counter = TreeCounter(raw)
        except GrammarValidationError:
            pytest.skip("cyclic grammar: infinite tree counts")
        glr = GlrParser(_TABLES[name])
        for words in _streams(_TABLES[name].grammar, count=4, budget=10):
            expected = counter.count(list(words))
            if expected:
                forest = glr.parse_forest(list(words))
                assert forest.tree_count(limit=expected + 10) == expected
            else:
                assert not glr.accepts(list(words))

    def test_dangling_else_has_two_readings(self):
        glr = GlrParser(_TABLES["dangling_else"])
        forest = glr.parse_forest("if if other else other".split())
        assert forest.tree_count() == 2
        assert forest.is_ambiguous
        sexprs = {tree.sexpr() for tree in forest.trees()}
        assert len(sexprs) == 2

    def test_catalan_counts(self):
        grammar = load_grammar("S -> S S | a").augmented()
        glr = GlrParser(build_lalr_table(grammar))
        for n, catalan in [(1, 1), (2, 1), (3, 2), (4, 5), (5, 14), (6, 42)]:
            forest = glr.parse_forest(["a"] * n)
            assert forest.tree_count(limit=100) == catalan, n

    def test_cyclic_grammar_terminates(self):
        # reads_cycle has A =>+ A: the SPPF holds cycles, so the forest
        # saturates rather than looping and tree extraction skips the
        # infinite derivations.
        table = _TABLES["reads_cycle"]
        glr = GlrParser(table)
        for words in _streams(table.grammar, count=3, budget=8):
            accepted = glr.accepts(list(words))
            if accepted:
                forest = glr.parse_forest(list(words))
                assert forest.tree_count(limit=50) >= 1


class TestConflictedTableOptIn:
    """Satellite: the deterministic engine refuses conflicted tables."""

    def test_default_raises_typed_error_naming_first_conflict(self):
        table = _TABLES["dangling_else"]
        with pytest.raises(ConflictedTableError) as info:
            Parser(table)
        message = str(info.value)
        assert "dangling_else" in message
        assert "1 unresolved conflict" in message
        assert "allow_conflicts=True" in message
        assert "--engine glr" in message
        assert info.value.conflicts == table.unresolved_conflicts

    def test_opt_in_parses_with_yacc_defaults_and_counts(self):
        table = _TABLES["dangling_else"]
        with instrument.profile() as collector:
            parser = Parser(table, allow_conflicts=True)
            assert parser.accepts("if other else other".split())
        assert collector.counters.get("parser.conflicted_table") == 1

    def test_yacc_default_is_the_shift_reading(self):
        # Opting in resolves dangling-else by shifting: the else binds
        # to the inner if — exactly one of the two GLR readings.
        lalr = Parser(_TABLES["dangling_else"], allow_conflicts=True)
        glr = GlrParser(_TABLES["dangling_else"])
        words = "if if other else other".split()
        sexprs = {tree.sexpr() for tree in glr.parse_forest(words).trees()}
        assert lalr.parse(words).sexpr() in sexprs


class TestCykBudget:
    """Satellite: CykRecognizer.accepts is budget-governed."""

    def test_token_cap_trips(self):
        cyk = CykRecognizer(corpus.load("palindrome"))
        with pytest.raises(BudgetExceeded) as info:
            cyk.accepts(["a"] * 10, budget=Budget(max_tokens=4))
        assert info.value.resource == "max_tokens"
        assert info.value.phase == "cyk"

    def test_deadline_checked_inside_span_loop(self):
        cyk = CykRecognizer(corpus.load("palindrome"))
        # timeout=0 expires immediately; the span loop must notice within
        # one CLOCK_STRIDE of ticks even though no token cap is set.
        with pytest.raises(BudgetExceeded) as info:
            cyk.accepts(["a"] * 16, budget=Budget(timeout=0.0))
        assert info.value.resource == "timeout"
        assert info.value.phase == "cyk"

    def test_unbudgeted_calls_unchanged(self):
        cyk = CykRecognizer(corpus.load("palindrome"))
        assert cyk.accepts(["a", "b", "b", "a"])
        assert not cyk.accepts(["a", "b"])


class TestNondetView:
    """The conflict-list view the GLR engine runs on."""

    def test_cells_in_canonical_order(self):
        view = nondet_view(_TABLES["dangling_else"])
        assert not view.is_deterministic
        multi = [cell for row in view.rows for cell in row if len(cell) >= 2]
        assert view.conflict_cells == len(multi)
        assert multi
        from repro.tables.nondet import _cell_order

        for actions in multi:
            assert tuple(sorted(actions, key=_cell_order)) == actions

    def test_deterministic_table_has_singleton_cells(self):
        view = nondet_view(_TABLES["expr"])
        assert view.is_deterministic
        assert view.conflict_cells == 0
        assert all(len(cell) <= 1 for row in view.rows for cell in row)

    def test_view_is_memoized(self):
        table = _TABLES["expr"]
        assert nondet_view(table) is nondet_view(table)


class TestArtifactRoundTrip:
    """Conflicted tables survive both artifact formats with the GLR
    engine none the wiser (satellite: JSON format 4 / binary format 3)."""

    @pytest.mark.parametrize("name", CONFLICTED)
    def test_json_and_binary_preserve_the_forest(self, name):
        table = _TABLES[name]
        grammar = table.grammar
        words = next(
            ([s.name for s in sentence]
             for sentence in SentenceGenerator(grammar, seed=0).sentences(4, budget=10)
             if sentence),
            [],
        )
        fresh = GlrParser(table).parse_forest(list(words))
        for loaded in (
            table_from_dict(table_to_dict(table), grammar),
            table_from_bytes(table_to_bytes(table), grammar),
        ):
            assert nondet_view(loaded).rows == nondet_view(table).rows
            replay = GlrParser(loaded).parse_forest(list(words))
            assert replay.tree_count(limit=50) == fresh.tree_count(limit=50)


class TestForestApi:
    def test_left_recursion_yields_one_tree(self):
        grammar = load_grammar("S -> S a | a").augmented()
        glr = GlrParser(build_lalr_table(grammar))
        forest = glr.parse_forest(["a", "a"])
        assert forest.tree_count() == 1
        assert forest.tree().sexpr() == "(S (S a) a)"

    def test_rejection_raises_parse_error_with_expected_set(self):
        glr = GlrParser(_TABLES["dangling_else"])
        with pytest.raises(ParseError) as info:
            glr.parse_forest(["else"])
        assert info.value.position == 0
        assert [s.name for s in info.value.expected] == ["if", "other"]

    def test_empty_input_on_nullable_grammar(self):
        grammar = load_grammar("S -> %empty | a S").augmented()
        glr = GlrParser(build_lalr_table(grammar))
        assert glr.accepts([])
        assert glr.parse_forest([]).tree_count() == 1

    def test_stats_exposed(self):
        glr = GlrParser(_TABLES["expr"])
        forest = glr.parse_forest("id + id".split())
        stats = forest.stats
        assert stats["shifts"] == 3
        assert stats["gss_nodes"] >= 4
        assert forest.token_count == 3


class TestTreeCountTwin:
    """``tree_count`` counts over the SPPF without building trees; the
    enumerating ``trees()`` is its oracle, limit by limit."""

    LIMITS = (1, 2, 3, 50, 1000)

    def _assert_twins(self, forest):
        for limit in self.LIMITS:
            assert forest.tree_count(limit) == len(forest.trees(limit)), limit

    def _accepted_forests(self, table, streams):
        glr = GlrParser(table)
        for words in streams:
            try:
                yield glr.parse_forest(list(words))
            except ParseError:
                continue

    @pytest.mark.parametrize("name", sorted(_TABLES))
    def test_corpus(self, name):
        table = _TABLES[name]
        streams = _streams(table.grammar, count=4, budget=12)
        for forest in self._accepted_forests(table, streams):
            self._assert_twins(forest)

    def test_catalan_counts(self):
        grammar = load_grammar("E -> E E | a").augmented()
        glr = GlrParser(build_lalr_table(grammar))
        catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
        for n, count in enumerate(catalan, start=1):
            forest = glr.parse_forest(["a"] * n)
            self._assert_twins(forest)
            for limit in self.LIMITS:
                assert forest.tree_count(limit) == min(count, limit), (n, limit)

    @pytest.mark.parametrize(
        "text",
        [
            "A -> A | a",
            "S -> S S | a | %empty",
            "S -> A\nA -> B | a\nB -> A | b | A A",
            # B is cut short under A's cycle guard, then reached again
            # from S where the guard does not fire: two different counts.
            "S -> A | B\nA -> B | a\nB -> A | b",
        ],
    )
    def test_cyclic_grammars(self, text):
        table = build_lalr_table(load_grammar(text).augmented())
        streams = [["a"] * n for n in range(4)] + [["a", "b"], ["b", "a", "b"]]
        forests = list(self._accepted_forests(table, streams))
        assert forests
        for forest in forests:
            self._assert_twins(forest)

    @given(grammar=_random_grammars)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_random_grammars(self, grammar):
        table = build_lalr_table(grammar.augmented())
        streams = _streams(table.grammar, count=3, budget=8)
        for forest in self._accepted_forests(table, streams):
            self._assert_twins(forest)
