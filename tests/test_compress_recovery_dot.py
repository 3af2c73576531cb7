"""Unit tests: table compression, panic-mode recovery, DOT export."""

from array import array

import pytest

from repro.analysis import SentenceGenerator
from repro.automaton import LR0Automaton
from repro.automaton.dot import automaton_to_dot, includes_to_dot, reads_to_dot
from repro.core import LalrAnalysis
from repro.grammar import load_grammar
from repro.grammars import corpus
from repro.parser import Parser
from repro.parser.recovery import RecoveringParser
from repro.tables import ParseTable, build_lalr_table
from repro.tables.compress import compress, compression_ratio
from repro.tables.table import ACTION_ACCEPT, ACTION_ERROR
from tests.classic_lr import classic_run


class TestCompression:
    @pytest.fixture
    def tables(self):
        grammar = corpus.load("expr", augment=True)
        table = build_lalr_table(grammar)
        return grammar, table, compress(table)

    def test_cells_shrink(self, tables):
        grammar, table, compressed = tables
        assert compressed.size_cells() < table.size_cells()
        assert compression_ratio(table) > 1.0

    def test_action_semantics_identical_on_valid_cells(self, tables):
        grammar, table, compressed = tables
        for state in range(table.n_states):
            for terminal in grammar.terminals:
                original = table.action(state, terminal)
                if original is not None:
                    assert compressed.action(state, terminal) == original

    def test_default_may_fire_on_error_cells(self, tables):
        grammar, table, compressed = tables
        fired = 0
        for state in range(table.n_states):
            for terminal in grammar.terminals:
                if table.action(state, terminal) is None:
                    replacement = compressed.action(state, terminal)
                    if replacement is not None:
                        assert replacement.kind == "reduce"
                        fired += 1
        assert fired > 0  # compression actually generalised some rows

    def test_acceptance_unchanged(self, tables):
        grammar, table, compressed = tables
        exact = Parser(table)
        generator = SentenceGenerator(grammar, seed=4)
        for sentence in generator.sentences(25, budget=12):
            outcome = classic_run(compressed, table, sentence)
            assert outcome[0] == "accept"
            assert outcome == classic_run(table, table, sentence)
            assert exact.accepts(sentence)

    def test_rejection_unchanged(self, tables):
        grammar, table, compressed = tables
        for bad in ("id +", "+ id", "( id", "id id", "id ) id"):
            assert classic_run(compressed, table, bad.split())[0] == "error", bad

    def test_error_detection_never_consumes_extra_tokens(self, tables):
        from repro.parser import ParseError

        grammar, table, compressed = tables
        exact = Parser(table)
        for bad in ("id + + id", "( id + )", "id * ( )"):
            with pytest.raises(ParseError) as exact_info:
                exact.parse(bad.split())
            # Defaults may delay detection past reductions but never past
            # a consumed token.
            assert classic_run(compressed, table, bad.split()) == (
                "error",
                exact_info.value.position,
            )

    def test_rows_with_single_reduce_become_default_only(self):
        grammar = load_grammar("S -> a").augmented()
        compressed = compress(build_lalr_table(grammar))
        reduce_rows = [
            i for i, default in enumerate(compressed.defaults) if default
        ]
        assert reduce_rows
        for i in reduce_rows:
            assert compressed.actions[i] == {}

    def test_error_diagnostics_identical_corpus_wide(self, corpus_grammar):
        """Acceptance and error position under the compressed lookup match
        the engine on every corpus grammar with a deterministic LALR
        table, across mutated inputs."""
        from repro.parser import ParseError

        grammar = corpus_grammar.augmented()
        table = build_lalr_table(grammar)
        if not table.is_deterministic:
            pytest.skip("needs a deterministic LALR table")
        exact = Parser(table)
        compressed = compress(table)
        terminals = [t for t in grammar.terminals if t is not grammar.eof]

        generator = SentenceGenerator(grammar, seed=11)
        compared = 0
        for sentence in generator.sentences(8, budget=8):
            mutants = [sentence[:-1], sentence + sentence[-1:]]
            for i in range(len(sentence)):
                mutants.append(
                    sentence[:i] + [terminals[i % len(terminals)].name]
                    + sentence[i + 1:]
                )
            for bad in mutants:
                outcome = classic_run(compressed, table, bad)
                try:
                    exact.parse(bad)
                except ParseError as error:
                    assert outcome == ("error", error.position)
                    compared += 1
                else:
                    assert outcome == classic_run(table, table, bad)
        assert compared > 0

    def test_compression_ratio_builds_once(self, tables, monkeypatch):
        # Regression: the ratio used to compress (and size) the table
        # twice — once for the numerator's guard, once for the value.
        from repro.tables.compress import CompressedTable

        grammar, table, _ = tables
        builds = []
        original = CompressedTable.__init__

        def counting(self, source):
            builds.append(1)
            original(self, source)

        monkeypatch.setattr(CompressedTable, "__init__", counting)
        assert compression_ratio(table) > 1.0
        assert len(builds) == 1

    def test_missing_accept_rejected(self, tables):
        # A table with no accept on $end must refuse to compress: a
        # column default would stand in for the missing accept and the
        # parser would reduce forever at end of input.
        grammar, table, _ = tables
        without_accept = ParseTable(
            grammar,
            table.method,
            array(
                "i",
                (ACTION_ERROR if c == ACTION_ACCEPT else c for c in table.action_codes),
            ),
            table.goto_codes,
            table.conflicts,
        )
        with pytest.raises(ValueError, match="accept"):
            compress(without_accept)


class TestRecovery:
    @pytest.fixture
    def recovering(self):
        grammar = load_grammar("""
%token ID
%start stmts
%%
stmts : stmt | stmts stmt ;
stmt : ID '=' ID ';' ;
""").augmented()
        parser = Parser(build_lalr_table(grammar))
        return RecoveringParser(parser, sync_tokens=[";"])

    def test_clean_input_no_errors(self, recovering):
        tokens = "ID = ID ; ID = ID ;".split()
        assert recovering.check(tokens) == []

    def test_single_error_reported_once(self, recovering):
        tokens = "ID = = ID ; ID = ID ;".split()
        errors = recovering.check(tokens)
        assert len(errors) == 1
        assert errors[0].position == 2

    def test_multiple_errors_all_reported(self, recovering):
        tokens = "ID = ; ID ID ; ID = ID ;".split()
        errors = recovering.check(tokens)
        assert len(errors) == 2

    def test_error_positions_increase(self, recovering):
        tokens = "= ; ID = ; ID ID ID ;".split()
        errors = recovering.check(tokens)
        positions = [e.position for e in errors]
        assert positions == sorted(positions)
        assert len(positions) >= 2

    def test_max_errors_cap(self, recovering):
        tokens = "= ; " * 30
        errors = recovering.check(tokens.split(), max_errors=5)
        assert len(errors) == 5

    def test_unrecoverable_tail(self, recovering):
        errors = recovering.check("ID = ID".split())  # missing final ;
        assert len(errors) == 1

    def test_nonterminal_sync_rejected(self, recovering):
        with pytest.raises(ValueError):
            RecoveringParser(recovering.parser, sync_tokens=["stmt"])

    def test_sync_as_last_real_token_terminates(self, recovering):
        # The sync token is the last real token, so its follower is the
        # appended end-of-input sentinel; no state on the stack acts on
        # it, recovery hard-resets, and the re-derived error at the
        # sentinel itself is the final one (the next recovery scan sees
        # only end-of-input and gives up).
        errors = recovering.check("= ;".split())
        assert [e.position for e in errors] == [0, 2]

    def test_unactionable_follower_hard_resets(self, recovering):
        # After "ID = ;" the sync follower is another ';' that no
        # stacked state can act on: recovery resets to the start state
        # and the parser re-derives each subsequent error exactly.
        errors = recovering.check("ID = ; ;".split())
        assert [e.position for e in errors] == [2, 3, 4]

    def test_max_errors_truncates_hard_reset_storm(self, recovering):
        # Every "= ;" pair hard-resets; the cap must stop the walk with
        # one error per pair, in position order.
        errors = recovering.check(("= ; " * 30).split(), max_errors=5)
        assert [e.position for e in errors] == [0, 2, 4, 6, 8]

    def test_check_honours_budget(self, recovering):
        from repro.core import Budget, BudgetExceeded

        with pytest.raises(BudgetExceeded) as info:
            recovering.check("ID = ID ;".split(),
                             budget=Budget(max_parse_steps=3))
        assert info.value.phase == "parse.check"
        budget = Budget(max_parse_steps=10_000)
        assert recovering.check("ID = ID ;".split(), budget=budget) == []
        assert budget.parse_steps > 0


class TestDot:
    def test_automaton_dot_structure(self):
        import re

        automaton = LR0Automaton(corpus.load("expr", augment=True))
        dot = automaton_to_dot(automaton)
        assert dot.startswith("digraph lr0 {") and dot.endswith("}")
        edges = re.findall(r"^\s*s\d+ -> s\d+", dot, re.MULTILINE)
        assert len(edges) == sum(len(s.transitions) for s in automaton.states)
        assert 's0 [label="state 0' in dot

    def test_full_closure_mode_bigger(self):
        automaton = LR0Automaton(corpus.load("expr", augment=True))
        kernel = automaton_to_dot(automaton, kernel_only=True)
        full = automaton_to_dot(automaton, kernel_only=False)
        assert len(full) > len(kernel)

    def test_reads_dot_highlights_sccs(self):
        analysis = LalrAnalysis(corpus.load("reads_cycle", augment=True))
        dot = reads_to_dot(analysis)
        assert "fillcolor" in dot  # the cycle is highlighted

    def test_includes_dot_renders(self):
        analysis = LalrAnalysis(corpus.load("expr", augment=True))
        dot = includes_to_dot(analysis)
        assert dot.startswith("digraph includes {")
        assert "fillcolor" not in dot  # no SCCs in expr's includes

    def test_quotes_escaped(self):
        grammar = load_grammar("S -> '\"' a").augmented()
        dot = automaton_to_dot(LR0Automaton(grammar))
        assert '\\"' in dot


class TestCompressedRecoveryCombo:
    def test_compressed_lr0_table(self):
        from repro.grammars import corpus
        from repro.tables import build_lr0_table
        from repro.tables.compress import compress

        grammar = corpus.load("lr0_demo", augment=True)
        table = build_lr0_table(grammar)
        compact = compress(table)
        assert classic_run(compact, table, "a a b b".split())[0] == "accept"
        assert classic_run(compact, table, "a b a".split())[0] == "error"
