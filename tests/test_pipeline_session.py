"""Integration tests: the incremental analysis session.

The contract under test is absolute: whatever strategy ``update`` picks
(noop, memo restore, delta-scoped splice, full rebuild), the session's
artifacts afterwards are **bit-identical** to what a fresh session on
the same grammar would hold — same LA masks in the same insertion
order, same table rows, same conflict reports, same automaton shape.
Incremental mode may only ever change latency.
"""

import pytest

from repro.automaton.lr0 import LR0Automaton
from repro.core import instrument
from repro.core.lalr import LalrAnalysis
from repro.grammar import load_grammar
from repro.grammar.delta import DeltaKind, add_production, replace_rhs
from repro.grammars import corpus
from repro.pipeline import AnalysisSession, SESSION_PHASES
from repro.tables.build import build_lalr_table

EXPR = """
E -> E + T | T
T -> T * F | F
F -> ( E ) | id
"""


def assert_matches_scratch(session):
    """The session's artifacts equal a from-scratch build, bit for bit."""
    grammar = session.grammar
    automaton = LR0Automaton(grammar)
    analysis = LalrAnalysis(grammar, automaton)
    table = build_lalr_table(grammar, automaton, la_masks=analysis.la_masks)

    assert len(session.automaton.states) == len(automaton.states)
    for ours, reference in zip(session.automaton.states, automaton.states):
        assert ours.kernel_codes == reference.kernel_codes
        assert list(ours.targets) == list(reference.targets)
        assert ours.reductions == reference.reductions

    # Dict equality *and* key order: downstream consumers (serialisers,
    # diffing tools) see insertion order.
    assert session.analysis.la_masks == analysis.la_masks
    assert list(session.analysis.la_masks) == list(analysis.la_masks)
    assert session.analysis._read_masks == analysis._read_masks
    assert session.analysis._follow_masks == analysis._follow_masks
    assert set(session.analysis.reads_sccs) == set(analysis.reads_sccs)
    assert set(session.analysis.includes_sccs) == set(analysis.includes_sccs)

    assert session.table.action_codes == table.action_codes
    assert session.table.goto_codes == table.goto_codes
    assert session.table.actions == table.actions
    assert session.table.gotos == table.gotos
    assert [c.describe(grammar) for c in session.table.conflicts] == [
        c.describe(grammar) for c in table.conflicts
    ]


@pytest.fixture
def grammar():
    return load_grammar(EXPR, name="expr").augmented()


class TestStrategies:
    def test_identical_grammar_is_a_noop(self, grammar):
        session = AnalysisSession(grammar)
        report = session.update(grammar)
        assert report.strategy == "noop"
        assert report.kind == DeltaKind.IDENTICAL

    def test_rhs_edit_splices(self, grammar):
        session = AnalysisSession(grammar)
        report = session.update(replace_rhs(grammar, 1, ["E", "*", "T"]))
        assert report.strategy == "splice"
        assert not report.fell_back
        assert 0 < report.dirty_states < report.total_states
        assert_matches_scratch(session)

    def test_rhs_splice_decodes_no_cell(self, grammar, monkeypatch):
        # The refill copies clean rows as code slices and encodes only
        # the refilled ones: an edit never pays for the Symbol-keyed view.
        from repro.tables.table import ActionDecoder

        session = AnalysisSession(grammar)
        decoded = []
        original = ActionDecoder.decode

        def counting(self, encoded):
            decoded.append(encoded)
            return original(self, encoded)

        monkeypatch.setattr(ActionDecoder, "decode", counting)
        report = session.update(replace_rhs(grammar, 1, ["E", "*", "T"]))
        assert report.strategy == "splice"
        assert decoded == []

    def test_structural_edit_rebuilds(self, grammar):
        session = AnalysisSession(grammar)
        report = session.update(add_production(grammar, "F", ["id", "id"]))
        assert report.strategy == "rebuild"
        assert report.kind == DeltaKind.ADD_REMOVE
        assert not report.fell_back
        assert_matches_scratch(session)

    def test_guard_failure_falls_back_to_rebuild(self, grammar):
        # E -> E ) T re-shapes the automaton: the splice must detect it
        # and rebuild rather than produce a wrong table.
        session = AnalysisSession(grammar)
        report = session.update(replace_rhs(grammar, 1, ["E", ")", "T"]))
        assert report.strategy == "rebuild"
        assert report.kind == DeltaKind.RHS
        assert report.fell_back
        assert_matches_scratch(session)

    def test_memo_restores_the_exact_bundle(self, grammar):
        session = AnalysisSession(grammar)
        original = session.artifacts
        edited = replace_rhs(grammar, 1, ["E", "*", "T"])
        session.update(edited)
        report = session.update(grammar)
        assert report.strategy == "memo"
        assert session.artifacts is original

    def test_memo_disabled_splices_both_ways(self, grammar):
        session = AnalysisSession(grammar, memo_size=0)
        edited = replace_rhs(grammar, 1, ["E", "*", "T"])
        assert session.update(edited).strategy == "splice"
        assert session.update(grammar).strategy == "splice"
        assert_matches_scratch(session)

    def test_describe_mentions_the_dirty_region(self, grammar):
        session = AnalysisSession(grammar)
        report = session.update(replace_rhs(grammar, 1, ["E", "*", "T"]))
        assert "states recomputed" in report.describe()


class TestCounters:
    def test_splice_counts_reuse_not_recompute(self, grammar):
        session = AnalysisSession(grammar)
        edited = replace_rhs(grammar, 1, ["E", "*", "T"])
        with instrument.profile() as collector:
            session.update(edited)
        assert collector.counters.get("phase.reuse") == len(SESSION_PHASES)
        assert not collector.counters.get("phase.recompute")
        assert not collector.counters.get("phase.fallback")

    def test_rebuild_counts_recompute(self, grammar):
        session = AnalysisSession(grammar)
        edited = add_production(grammar, "F", ["id", "id"])
        with instrument.profile() as collector:
            session.update(edited)
        assert collector.counters.get("phase.recompute") == len(SESSION_PHASES)
        assert not collector.counters.get("phase.fallback")

    def test_fallback_is_counted(self, grammar):
        session = AnalysisSession(grammar)
        edited = replace_rhs(grammar, 1, ["E", ")", "T"])
        with instrument.profile() as collector:
            session.update(edited)
        assert collector.counters.get("phase.fallback") == 1
        assert collector.counters.get("phase.recompute") == len(SESSION_PHASES)


class TestCorpusEditChains:
    """Chained edits across real grammars stay bit-identical throughout."""

    @pytest.mark.parametrize("name", ["expr", "json", "mini_pascal_det"])
    def test_edit_chain_matches_scratch(self, name):
        base = corpus.load(name).augmented()
        session = AnalysisSession(base)
        terminals = [t for t in base.terminals if t is not base.eof]
        current = base
        spliced = 0
        for index, production in enumerate(base.productions):
            if index == 0 or not production.rhs:
                continue
            for position, symbol in enumerate(production.rhs):
                if not symbol.is_terminal:
                    continue
                edited = replace_rhs(
                    current,
                    index,
                    tuple(
                        terminals[0] if i == position else s
                        for i, s in enumerate(production.rhs)
                    ),
                )
                report = session.update(edited)
                assert report.strategy in ("splice", "rebuild", "noop")
                spliced += report.strategy == "splice"
                assert_matches_scratch(session)
                current = edited
                break  # one terminal position per production keeps this fast
        assert session.updates > 0


class TestSpliceRelationCounters:
    """A splice publishes ``relations.*`` from totals carried across the
    edit, not from a recount; they must equal a from-scratch ``stats()``.

    Both ways of getting the parent's totals are covered: counted when
    the session opened under a profile, or counted on first use."""

    @staticmethod
    def _chain(base):
        terminals = [t for t in base.terminals if t is not base.eof]
        current = base
        for index, production in enumerate(base.productions):
            if index == 0:
                continue
            for position, symbol in enumerate(production.rhs):
                if symbol.is_terminal:
                    replacement = terminals[(index + position) % len(terminals)]
                    current = replace_rhs(
                        current,
                        index,
                        [replacement if i == position else s
                         for i, s in enumerate(production.rhs)],
                    )
                    yield current
                    break

    @pytest.mark.parametrize("profiled_open", [True, False])
    @pytest.mark.parametrize("name", ["expr", "json", "mini_pascal_det", "toy_java"])
    def test_counters_match_a_fresh_count(self, name, profiled_open):
        base = corpus.load(name).augmented()
        if profiled_open:
            with instrument.profile():
                session = AnalysisSession(base, memo_size=0)
        else:
            session = AnalysisSession(base, memo_size=0)
        spliced = 0
        for edited in self._chain(base):
            with instrument.profile() as collector:
                report = session.update(edited)
            if report.strategy == "noop":
                continue
            fresh = LalrAnalysis(
                session.grammar, LR0Automaton(session.grammar)
            ).relations.stats()
            published = {
                key.split(".", 1)[1]: value
                for key, value in collector.counters.items()
                if key.startswith("relations.")
            }
            assert published == fresh
            assert session.relations.stats() == fresh
            spliced += report.strategy == "splice"
        assert spliced >= 2


class TestMemoKey:
    def test_bundles_are_keyed_by_the_grammar_fingerprint(self, grammar):
        from repro.grammar.fingerprint import grammar_fingerprint

        session = AnalysisSession(grammar)
        edited = replace_rhs(grammar, 1, ["E", "*", "T"])
        session.update(edited)
        assert session.artifacts.fingerprint == grammar_fingerprint(edited)
        assert list(session._memo) == [grammar_fingerprint(grammar)]


#: The edit-session rings: per grammar, the (production, rhs position)
#: every edit rewrites and the 16 terminals it cycles through there —
#: each edit a splice from the one before, the last back to the first.
RINGS = {
    "toy_java": (6, 0, [
        "ID", "NUM", "STRING", "class", "{", "}", ";", "=", "(", ")",
        "void", ",", "[", "]", "int", "boolean",
    ]),
    "algol_like": (16, 0, [
        "ID", "STRINGLIT", "begin", "end", ";", "array", "[", ":", "]",
        "procedure", "switch", ":=", "integer", "real", "boolean", ",",
    ]),
    "mini_c": (9, 1, [
        "ID", "NUM", "(", ")", "int", "char", "void", ";", "=", "{", "}",
        "if", "else", "while", "return", "?",
    ]),
    "mini_pascal_det": (2, 0, [
        "ID", "NUM", ".", ";", "var", ":", ",", "integer", "boolean",
        "array", "[", "]", "of", "begin", "end", ":=",
    ]),
}

#: Recorded before splices carried their indexes, LA dict, closure
#: tables and nullability: the carried state must leave every counter,
#: relation total and union count exactly where the per-edit rebuilds
#: of that state put it.  Summed over the 17 edits of each ring.
RING_COUNTERS = {
    "toy_java": {
        "lalr.lookahead_sites": 1785,
        "phase.lr0.states_recomputed": 51,
        "phase.lr0.states_reused": 2975,
        "phase.relations.rows_recomputed": 17,
        "phase.relations.rows_reused": 7633,
        "phase.relations.walks_reused": 7616,
        "phase.relations.walks_rewalked": 34,
        "phase.reuse": 85,
        "phase.table.rows_refilled": 51,
        "phase.table.rows_reused": 2975,
    },
    "algol_like": {
        "lalr.lookahead_sites": 1581,
        "phase.lr0.states_recomputed": 51,
        "phase.lr0.states_reused": 2482,
        "phase.relations.rows_recomputed": 34,
        "phase.relations.rows_reused": 4454,
        "phase.relations.walks_reused": 4437,
        "phase.relations.walks_rewalked": 51,
        "phase.reuse": 85,
        "phase.table.rows_refilled": 51,
        "phase.table.rows_reused": 2482,
    },
    "mini_c": {
        "lalr.lookahead_sites": 1173,
        "phase.lr0.states_recomputed": 68,
        "phase.lr0.states_reused": 1904,
        "phase.relations.rows_recomputed": 102,
        "phase.relations.rows_reused": 4522,
        "phase.relations.walks_reused": 4488,
        "phase.relations.walks_rewalked": 136,
        "phase.reuse": 85,
        "phase.table.rows_refilled": 102,
        "phase.table.rows_reused": 1870,
    },
    "mini_pascal_det": {
        "lalr.lookahead_sites": 799,
        "phase.lr0.states_recomputed": 68,
        "phase.lr0.states_reused": 1292,
        "phase.relations.rows_recomputed": 34,
        "phase.relations.rows_reused": 969,
        "phase.relations.walks_reused": 969,
        "phase.relations.walks_rewalked": 34,
        "phase.reuse": 85,
        "phase.table.rows_refilled": 68,
        "phase.table.rows_reused": 1292,
    },
}
#: Summed ``analysis.stats.unions`` over the ring's 17 edits.
RING_UNIONS = {
    "toy_java": 26231, "algol_like": 10353, "mini_c": 12291, "mini_pascal_det": 2737,
}
#: ``relations.stats()`` after the ring closed.
RING_RELATIONS = {
    "toy_java": {
        "nonterminal_transitions": 450, "dr_bits": 560, "reads_edges": 0,
        "includes_edges": 915, "lookback_edges": 1543, "reduction_sites": 105,
    },
    "algol_like": {
        "nonterminal_transitions": 264, "dr_bits": 524, "reads_edges": 16,
        "includes_edges": 368, "lookback_edges": 609, "reduction_sites": 93,
    },
    "mini_c": {
        "nonterminal_transitions": 272, "dr_bits": 299, "reads_edges": 0,
        "includes_edges": 562, "lookback_edges": 721, "reduction_sites": 69,
    },
    "mini_pascal_det": {
        "nonterminal_transitions": 59, "dr_bits": 57, "reads_edges": 1,
        "includes_edges": 104, "lookback_edges": 161, "reduction_sites": 47,
    },
}


def _ring_edits(name, base):
    """The ring's edits of *base*, in order, closing back on the first."""
    index, position, terminals = RINGS[name]
    rhs = [symbol.name for symbol in base.productions[index].rhs]
    current = base
    for terminal in terminals + terminals[:1]:
        current = replace_rhs(
            current, index, rhs[:position] + [terminal] + rhs[position + 1:]
        )
        yield current


class TestEditSessionRings:
    """What a splice carries across an edit — the walk index, successor
    readers, LA dict, closure tables and nullable set — changes no
    counter and no artifact over the edit-session rings."""

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_ring_counters_are_pinned(self, name):
        base = corpus.load(name).augmented()
        session = AnalysisSession(base, memo_size=0)
        counters = {}
        unions = 0
        for edited in _ring_edits(name, base):
            with instrument.profile() as collector:
                report = session.update(edited)
            assert report.strategy == "splice"
            for key, value in collector.counters.items():
                if key.startswith("phase.") or key == "lalr.lookahead_sites":
                    counters[key] = counters.get(key, 0) + value
            unions += session.analysis.stats.unions
        assert counters == RING_COUNTERS[name]
        assert unions == RING_UNIONS[name]
        assert session.relations.stats() == RING_RELATIONS[name]

    def test_la_dict_order_after_sixteen_splices(self):
        base = corpus.load("toy_java").augmented()
        session = AnalysisSession(base, memo_size=0)
        for edited in list(_ring_edits("toy_java", base))[:16]:
            assert session.update(edited).strategy == "splice"
            # The lookback relation survived, so the dict was patched.
            assert session.analysis.la_changed_sites is not None
        assert_matches_scratch(session)

    def test_splice_carries_the_parent_state(self):
        base = corpus.load("toy_java").augmented()
        session = AnalysisSession(base, memo_size=0)
        parent = session.artifacts
        edits = _ring_edits("toy_java", base)
        edited = next(edits)
        assert session.update(edited).strategy == "splice"
        # Terminal for terminal: the nullable set is carried, not recounted.
        assert edited.__dict__["_nullable_nonterminals"] is parent.relations.nullable
        # Closure-table rows are shared except the edited rule's lhs.
        dirty = session.automaton.ids.nonterminal_id(base.productions[6].lhs)
        ours = edited.__dict__["_closure_tables"]
        theirs = base.__dict__["_closure_tables"]
        for column in (3, 4, 5):
            for nt_id, (row, old_row) in enumerate(zip(ours[column], theirs[column])):
                if nt_id != dirty:
                    assert row is old_row
        assert session.relations.lookback_nodes is parent.relations.lookback_nodes
        # The first splice built the successor readers; the next one
        # shares them outright.
        first = session.artifacts
        assert first.relations.readers is not None
        assert session.update(next(edits)).strategy == "splice"
        assert session.relations.readers is first.relations.readers
        assert_matches_scratch(session)


class TestCarriedStateFallbacks:
    def test_nullability_flip_still_falls_back(self):
        # V -> e becoming V -> %empty makes V nullable; the rule is
        # unreachable, so the automaton splice passes and the nullable
        # set itself is what trips the fallback.
        grammar = load_grammar(
            "S -> a S b | c\nV -> e | d", name="flip"
        ).augmented()
        session = AnalysisSession(grammar)
        report = session.update(replace_rhs(grammar, 3, []))
        assert report.strategy == "rebuild"
        assert report.fell_back
        assert report.reason == "nullability changed"
        assert_matches_scratch(session)

    def test_terminal_free_rule_recounts_nullability(self):
        # The new rhs holds no terminal, so nothing is carried; the
        # recount agrees with the parent's and the edit still splices.
        grammar = load_grammar(
            "S -> a S b | c\nV -> e | d\nW -> f", name="recount"
        ).augmented()
        session = AnalysisSession(grammar)
        edited = replace_rhs(grammar, 3, ["W"])
        assert session.update(edited).strategy == "splice"
        parent_nullable = grammar.__dict__["_nullable_nonterminals"]
        recounted = edited.__dict__["_nullable_nonterminals"]
        assert recounted is not parent_nullable
        assert recounted == parent_nullable
        assert_matches_scratch(session)

    @pytest.mark.parametrize("rhs", [
        ["(", "E", ")", "id"],
        ["id", "(", "E", ")"],
    ])
    def test_dot_width_crossing_still_falls_back(self, rhs):
        grammar = load_grammar(
            "E -> E + T | T\nT -> ( E ) | id", name="width"
        ).augmented()
        session = AnalysisSession(grammar)
        report = session.update(replace_rhs(grammar, 3, rhs))
        assert report.strategy == "rebuild"
        assert report.fell_back
        assert report.reason.startswith("item packing width changed")
        assert_matches_scratch(session)

    @pytest.mark.parametrize("memo", ["walk_sites", "walk_states"])
    def test_a_changed_walk_falls_back(self, grammar, memo):
        # Under the automaton guards a rewalk keeps its states and its
        # lookback sites, so only a tampered memo can disagree with it:
        # the splice must rebuild rather than carry the old lookback
        # relation and walk index.
        session = AnalysisSession(grammar, memo_size=0)
        relations = session.relations
        lhs_id = grammar.ids.nonterminal_id(grammar.productions[1].lhs)
        node = next(
            n for n, packed in enumerate(relations.packed)
            if packed % relations.num_nonterminals == lhs_id
        )
        tampered = list(getattr(relations, memo))
        if memo == "walk_sites":
            tampered[node] = tampered[node] + [(0, 0)]
        else:
            extra = next(
                state for state in range(len(session.automaton.states))
                if state not in tampered[node]
            )
            tampered[node] = tampered[node] + [extra]
        setattr(relations, memo, tampered)
        report = session.update(replace_rhs(grammar, 1, ["E", "*", "T"]))
        assert report.strategy == "rebuild"
        assert report.fell_back
        assert report.reason == "a walk's states or lookback sites changed"
        assert_matches_scratch(session)
