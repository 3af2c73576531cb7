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
