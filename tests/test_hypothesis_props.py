"""Property-based tests (hypothesis) over random grammars.

These are the suite's heavy guns: every invariant in DESIGN.md §5 checked
on machine-generated grammars whose shapes (nullable density, recursion,
alternative counts) hypothesis explores and shrinks.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis import FirstSets, FollowSets, SentenceGenerator, leftmost_derivation
from repro.automaton import LR0Automaton
from repro.core import LalrAnalysis
from repro.core.digraph import digraph, naive_closure
from repro.fuzz.oracles import run_oracles
from repro.grammars.random_gen import random_grammar
from repro.parser import Parser
from repro.tables import build_clr_table, build_lalr_table

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

grammar_shapes = st.builds(
    lambda seed, nts, ts, eps: random_grammar(
        seed,
        n_nonterminals=nts,
        n_terminals=ts,
        epsilon_weight=eps,
    ),
    seed=st.integers(min_value=0, max_value=10_000),
    nts=st.integers(min_value=2, max_value=6),
    ts=st.integers(min_value=2, max_value=5),
    eps=st.floats(min_value=0.0, max_value=0.4),
)


class TestLookaheadEquivalence:
    """The headline theorem and its neighbours, via the shared oracle
    stack (repro.fuzz.oracles) — the same checks the fuzz campaign and
    the Table 6 benchmark run, here driven by hypothesis shapes."""

    @given(grammar=grammar_shapes)
    @settings(max_examples=60, **COMMON)
    def test_lookahead_oracles_agree(self, grammar):
        """LA_DP == LA_merge == LA_propagation, LA ⊆ NQLALR ⊆ FOLLOW,
        and generic-vs-integer Digraph identity."""
        failures = run_oracles(
            grammar,
            names=["lookahead-equivalence", "superset-chain", "digraph-identity"],
        )
        assert failures == [], [f.describe() for f in failures]

    @given(grammar=grammar_shapes)
    @settings(max_examples=30, **COMMON)
    def test_table_and_roundtrip_oracles_agree(self, grammar):
        """Cell-identical tables from DP vs merged lookaheads, and
        identical LALR/CLR derivations on generated sentences."""
        failures = run_oracles(
            grammar, names=["table-agreement", "sentence-roundtrip"], seed=7
        )
        assert failures == [], [f.describe() for f in failures]

    @given(grammar=grammar_shapes)
    @settings(max_examples=40, **COMMON)
    def test_dr_read_follow_chain(self, grammar):
        """DR ⊆ Read ⊆ Follow on every nonterminal transition."""
        analysis = LalrAnalysis(grammar.augmented())
        for transition in analysis.relations.transitions:
            dr = analysis.relations.dr[transition]
            read = analysis.read_sets[transition]
            follow = analysis.follow_sets[transition]
            assert dr & ~read == 0
            assert read & ~follow == 0


class TestDigraphProperty:
    @given(
        n=st.integers(min_value=1, max_value=12),
        edge_seeds=st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40
        ),
        init_seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=100, **COMMON)
    def test_digraph_equals_naive_fixpoint(self, n, edge_seeds, init_seed):
        nodes = list(range(n))
        edges = {x: [] for x in nodes}
        for a, b in edge_seeds:
            edges[a % n].append(b % n)
        initial = {x: (init_seed >> x) & 0xFF for x in nodes}
        fast, _ = digraph(nodes, lambda x: edges[x], lambda x: initial[x])
        slow = naive_closure(nodes, lambda x: edges[x], lambda x: initial[x])
        assert fast == slow

    @given(
        n=st.integers(min_value=2, max_value=10),
        edge_seeds=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30
        ),
    )
    @settings(max_examples=60, **COMMON)
    def test_scc_members_share_results(self, n, edge_seeds):
        nodes = list(range(n))
        edges = {x: [] for x in nodes}
        for a, b in edge_seeds:
            edges[a % n].append(b % n)
        result, sccs = digraph(nodes, lambda x: edges[x], lambda x: 1 << x)
        for component in sccs:
            values = {result[member] for member in component}
            assert len(values) == 1


class TestFirstFollowProperties:
    @given(grammar=grammar_shapes)
    @settings(max_examples=50, **COMMON)
    def test_first_of_generated_sentence_prefix(self, grammar):
        """The first terminal of any generated sentence is in FIRST(start)."""
        generator = SentenceGenerator(grammar, seed=3)
        first = FirstSets(grammar)
        for _ in range(5):
            sentence = generator.sentence(budget=12)
            if sentence:
                assert sentence[0] in first[grammar.start]

    @given(grammar=grammar_shapes)
    @settings(max_examples=50, **COMMON)
    def test_follow_contains_observed_followers(self, grammar):
        """Any terminal observed right after A's yield in a derivation tree
        must lie in FOLLOW(A).  We check the weaker corollary that is easy
        to observe: adjacent pairs in rhs contribute FIRST(next) ⊆
        FOLLOW(prev) for nonterminal prev."""
        first = FirstSets(grammar)
        follow = FollowSets(grammar, first)
        for production in grammar.productions:
            rhs = production.rhs
            for i in range(len(rhs) - 1):
                if rhs[i].is_nonterminal:
                    terminals, _ = first.of_sequence(rhs[i + 1 :])
                    assert terminals <= follow[rhs[i]]

    @given(grammar=grammar_shapes)
    @settings(max_examples=50, **COMMON)
    def test_nullable_iff_empty_derivable(self, grammar):
        from repro.analysis import nullable_nonterminals
        from repro.analysis.derive import min_yield_lengths

        nullable = nullable_nonterminals(grammar)
        lengths = min_yield_lengths(grammar)
        for nonterminal in grammar.nonterminals:
            assert (nonterminal in nullable) == (lengths[nonterminal] == 0)


class TestParserRoundTrip:
    @given(
        grammar=grammar_shapes,
        choices=st.lists(st.integers(min_value=0, max_value=7), max_size=12),
    )
    @settings(max_examples=60, **COMMON)
    def test_generated_sentences_accepted_by_clr(self, grammar, choices):
        """Every sentence of the grammar parses with the canonical table
        (CLR is conflict-free only for LR(1) grammars; the engine's
        yacc-default tie-breaks still accept every sentence — on
        ambiguous grammars they pick one tree, never reject)."""
        grammar = grammar.augmented()
        # Canonical LR(1) is exponential-prone; bound the substrate so a
        # rare pathological draw cannot stall the suite.
        assume(len(LR0Automaton(grammar)) <= 40)
        sentence, _ = leftmost_derivation(grammar, choices)
        table = build_clr_table(grammar)
        parser = Parser(table, allow_conflicts=True)
        if table.is_deterministic:
            tree = parser.parse(sentence)
            assert [s.name for s in tree.fringe()] == [s.name for s in sentence]

    # (The LALR-vs-CLR sentence agreement that used to live here is now
    # the `sentence-roundtrip` oracle, exercised above and by the fuzz
    # campaign.)


class TestTableInvariants:
    @given(grammar=grammar_shapes)
    @settings(max_examples=40, **COMMON)
    def test_lalr_conflicts_iff_clr_or_merging_loss(self, grammar):
        """If LALR conflicts but CLR does not, the grammar is LR(1)-not-
        LALR(1); if CLR conflicts too, not LR(1).  Never the reverse."""
        grammar = grammar.augmented()
        assume(len(LR0Automaton(grammar)) <= 40)
        lalr = build_lalr_table(grammar)
        clr = build_clr_table(grammar)
        if lalr.is_deterministic:
            assert clr.is_deterministic

    @given(grammar=grammar_shapes)
    @settings(max_examples=40, **COMMON)
    def test_every_state_reachable_in_table(self, grammar):
        grammar = grammar.augmented()
        automaton = LR0Automaton(grammar)
        table = build_lalr_table(grammar, automaton)
        seen = {0}
        frontier = [0]
        while frontier:
            state = frontier.pop()
            successors = [a.state for a in table.actions[state].values()
                          if a.kind == "shift"]
            successors += list(table.gotos[state].values())
            for successor in successors:
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        # The state after shifting $end is deliberately unreachable — the
        # accept action replaces that shift.
        expected = set(range(table.n_states)) - {automaton.accept_state}
        assert expected <= seen


class TestNewComponentProperties:
    @given(grammar=grammar_shapes)
    @settings(max_examples=30, **COMMON)
    def test_compressed_table_equivalent_on_sentences(self, grammar):
        """Default-reduction compression never changes accepted parses."""
        from repro.analysis import SentenceGenerator
        from repro.tables.compress import compress
        from tests.classic_lr import classic_run

        grammar = grammar.augmented()
        table = build_lalr_table(grammar)
        if not table.is_deterministic:
            return
        compact = compress(table)
        generator = SentenceGenerator(grammar, seed=1)
        for sentence in generator.sentences(4, budget=8):
            outcome = classic_run(compact, table, sentence)
            assert outcome[0] == "accept"
            assert outcome == classic_run(table, table, sentence)

    @given(
        grammar=grammar_shapes,
        choices=st.lists(st.integers(min_value=0, max_value=7), max_size=8),
    )
    @settings(max_examples=40, **COMMON)
    def test_cyk_accepts_every_generated_sentence(self, grammar, choices):
        """CYK (via CNF) recognises every sentence the grammar derives."""
        from repro.parser import CykRecognizer

        sentence, _ = leftmost_derivation(grammar, choices)
        cyk = CykRecognizer(grammar)
        assert cyk.accepts([s.name for s in sentence])

    @given(grammar=grammar_shapes)
    @settings(max_examples=30, **COMMON)
    def test_lint_never_crashes_and_flags_cycles(self, grammar):
        from repro.grammar.lint import lint
        from repro.grammar.properties import has_cycles

        findings = lint(grammar)
        if has_cycles(grammar):
            assert any(w.code == "derivation-cycle" for w in findings)

    @given(
        grammar=grammar_shapes,
        choices=st.lists(st.integers(min_value=0, max_value=7), max_size=8),
    )
    @settings(max_examples=30, **COMMON)
    def test_generated_sentences_have_at_least_one_tree(self, grammar, choices):
        """Tree counting must see every derivable sentence (count ≥ 1)."""
        from repro.analysis.ambiguity import TreeCounter
        from repro.grammar.errors import GrammarValidationError
        from repro.grammar.properties import has_cycles

        if has_cycles(grammar):
            return
        sentence, _ = leftmost_derivation(grammar, choices)
        assume(len(sentence) <= 8)  # keep the span DP cheap
        assert TreeCounter(grammar).count(sentence) >= 1

    @given(grammar=grammar_shapes)
    @settings(max_examples=20, **COMMON)
    def test_deterministic_implies_unambiguous_within_bound(self, grammar):
        """LR(1)-deterministic grammars must count exactly one tree per
        sentence — the determinism ⇒ unambiguity theorem, bounded."""
        from repro.analysis.ambiguity import ambiguity_report
        from repro.grammar.properties import has_cycles

        if has_cycles(grammar):
            return
        augmented = grammar.augmented()
        assume(len(LR0Automaton(augmented)) <= 40)
        clr = build_clr_table(augmented)
        if not clr.is_deterministic:
            return
        report = ambiguity_report(grammar, 4)
        assert report.verdict == "unambiguous-within"
