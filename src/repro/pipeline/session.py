"""Long-lived analysis sessions with delta-scoped recomputation.

:class:`AnalysisSession` owns the whole pipeline for one grammar — LR(0)
automaton, DeRemer–Pennello relations, both Digraph passes, LA sets and
the LALR(1) :class:`~repro.tables.table.ParseTable` — as one
:class:`PhaseArtifacts` bundle, and keeps it **current across edits**:

- :meth:`AnalysisSession.update` classifies the edit with
  :func:`repro.grammar.delta.classify`;
- an rhs-only delta runs the splice chain
  (:func:`~repro.automaton.lr0_delta.splice_lr0` →
  :func:`~repro.core.relations_delta.splice_relations` →
  :meth:`~repro.core.lalr.LalrAnalysis.spliced_from` →
  :func:`~repro.tables.build.refill_lalr_table`), recomputing only dirty
  states, relation rows, digraph regions and table rows;
- any structural delta (productions added/removed, terminals changed,
  start or precedence changed, different symbol layout) — or a splice
  guard tripping :class:`~repro.automaton.lr0_delta.IncrementalFallback`
  — rebuilds from scratch instead.  Incremental mode never changes
  results, only latency: every artifact is bit-identical to a
  from-scratch build (the edit-fuzz oracle and the corpus tests assert
  exactly this).

Superseded artifact bundles go into a bounded in-memory memo keyed by
:func:`~repro.grammar.fingerprint.grammar_fingerprint`, so toggling
between grammar versions (undo/redo, A/B experiments) restores whole
bundles without recomputing anything.  The key's cost follows the edit
too: the edit constructors share unchanged rules and their cached JSON
fragments, so a one-rule edit serialises one rule, then hashes the
joined fragments once.  When the session is given a
:class:`~repro.tables.cache.TableCache`, full rebuilds read/write the
on-disk table store as well (enable the cache's ``hot_capacity`` to keep
hot tables in memory across sessions).

Reuse decisions surface through :mod:`repro.core.instrument` counters:

- ``phase.reuse`` — phases served by reuse (identical grammar, memo
  hit, or delta-scoped splice);
- ``phase.recompute`` — phases rebuilt from scratch;
- ``phase.fallback`` — updates that attempted a splice and fell back.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from ..automaton.lr0 import LR0Automaton
from ..automaton.lr0_delta import IncrementalFallback, splice_lr0
from ..core import instrument
from ..core.lalr import LalrAnalysis
from ..core.relations import LalrRelations
from ..core.relations_delta import splice_relations
from ..grammar.delta import GrammarDelta, classify
from ..grammar.fingerprint import grammar_fingerprint
from ..grammar.grammar import Grammar
from ..tables.build import build_lalr_table, refill_lalr_table
from ..tables.cache import TableCache
from ..tables.table import ParseTable

__all__ = ["AnalysisSession", "PhaseArtifacts", "UpdateReport", "SESSION_PHASES"]

#: The artifact-producing phases a session accounts for in its
#: ``phase.*`` counters (the two digraph passes share the ``digraph``
#: entry — they are patched or rebuilt together).
SESSION_PHASES = ("lr0", "relations", "digraph", "la", "table")


class PhaseArtifacts:
    """One grammar version's complete set of typed phase artifacts.

    Attributes:
        grammar: The (augmented) grammar the artifacts belong to.
        fingerprint: Its content digest
            (:func:`~repro.grammar.fingerprint.grammar_fingerprint`),
            the bundle's memo key.
        automaton: The LR(0) automaton.
        relations: The DeRemer–Pennello relations, with walk memos.
        analysis: The full look-ahead analysis (Read/Follow masks, SCC
            condensation diagnostics, LA sets).
        table: The LALR(1) parse table.
    """

    __slots__ = (
        "grammar",
        "fingerprint",
        "automaton",
        "relations",
        "analysis",
        "table",
    )

    def __init__(
        self,
        grammar: Grammar,
        fingerprint: str,
        automaton: LR0Automaton,
        relations: LalrRelations,
        analysis: LalrAnalysis,
        table: ParseTable,
    ):
        self.grammar = grammar
        self.fingerprint = fingerprint
        self.automaton = automaton
        self.relations = relations
        self.analysis = analysis
        self.table = table


class UpdateReport:
    """What one :meth:`AnalysisSession.update` call actually did.

    Attributes:
        kind: The classified delta kind (:class:`repro.grammar.delta
            .DeltaKind` constant).
        strategy: ``"noop"`` (identical grammar), ``"memo"`` (bundle
            restored from the in-memory memo), ``"splice"`` (delta-scoped
            recomputation) or ``"rebuild"`` (full pipeline).
        fell_back: True when a splice was attempted and a verification
            guard forced the rebuild.
        reason: One line saying why this strategy was taken.
        dirty_states: States recomputed by the splice (0 otherwise).
        total_states: State count of the automaton after the update.
    """

    __slots__ = (
        "kind",
        "strategy",
        "fell_back",
        "reason",
        "dirty_states",
        "total_states",
    )

    def __init__(
        self,
        kind: str,
        strategy: str,
        fell_back: bool,
        reason: str,
        dirty_states: int = 0,
        total_states: int = 0,
    ):
        self.kind = kind
        self.strategy = strategy
        self.fell_back = fell_back
        self.reason = reason
        self.dirty_states = dirty_states
        self.total_states = total_states

    def describe(self) -> str:
        line = f"{self.strategy} ({self.kind}): {self.reason}"
        if self.strategy == "splice":
            line += f" [{self.dirty_states}/{self.total_states} states recomputed]"
        return line

    def __repr__(self) -> str:
        return f"UpdateReport({self.strategy!r}, kind={self.kind!r}, fell_back={self.fell_back})"


class AnalysisSession:
    """A live pipeline over one evolving grammar.

    Args:
        grammar: The initial grammar (augmented on the way in if needed).
        table_cache: Optional on-disk :class:`TableCache`; full rebuilds
            then load/store the table there.
        memo_size: How many superseded artifact bundles to keep for
            instant restore (0 disables the memo).

    Note:
        For an edit to be delta-scoped it must share the original
        grammar's :class:`~repro.grammar.symbols.SymbolTable` and
        augmentation — exactly what the edit constructors in
        :mod:`repro.grammar.delta` produce.  A grammar re-augmented from
        scratch interns a fresh start symbol and classifies as a
        structural delta (correct, just never incremental).
    """

    def __init__(
        self,
        grammar: Grammar,
        table_cache: "Optional[TableCache]" = None,
        memo_size: int = 8,
    ):
        if not grammar.is_augmented:
            grammar = grammar.augmented()
        self._table_cache = table_cache
        self._memo: "OrderedDict[str, PhaseArtifacts]" = OrderedDict()
        self._memo_size = memo_size
        self.updates = 0
        #: How many updates took each strategy — the session-affinity
        #: evidence the service surfaces per session and in /metrics.
        self.strategy_counts: Dict[str, int] = {
            "noop": 0, "memo": 0, "splice": 0, "rebuild": 0,
        }
        self.artifacts = self._build_full(grammar)

    # -- current-artifact accessors ------------------------------------

    @property
    def grammar(self) -> Grammar:
        return self.artifacts.grammar

    @property
    def automaton(self) -> LR0Automaton:
        return self.artifacts.automaton

    @property
    def relations(self) -> LalrRelations:
        return self.artifacts.relations

    @property
    def analysis(self) -> LalrAnalysis:
        return self.artifacts.analysis

    @property
    def table(self) -> ParseTable:
        return self.artifacts.table

    # -- updates -------------------------------------------------------

    def update(self, grammar: Grammar) -> UpdateReport:
        """Bring the session's artifacts up to date with *grammar*.

        Returns an :class:`UpdateReport`; afterwards every accessor
        serves artifacts for *grammar*, bit-identical to what a fresh
        session on *grammar* would hold.
        """
        if not grammar.is_augmented:
            grammar = grammar.augmented()
        self.updates += 1
        report = self._update(grammar)
        self.strategy_counts[report.strategy] += 1
        return report

    def _update(self, grammar: Grammar) -> UpdateReport:
        delta = classify(self.grammar, grammar)
        if delta.is_identical:
            instrument.count("phase.reuse", len(SESSION_PHASES))
            return UpdateReport(delta.kind, "noop", False, delta.detail)

        key = grammar_fingerprint(grammar)
        memoized = self._memo.get(key)
        if memoized is not None and _same_layout(memoized.grammar, grammar):
            self._memo.move_to_end(key)
            self._remember(self.artifacts)
            self.artifacts = memoized
            instrument.count("phase.reuse", len(SESSION_PHASES))
            return UpdateReport(
                delta.kind, "memo", False, "restored memoized artifact bundle"
            )

        if delta.is_incremental:
            try:
                return self._splice(grammar, delta)
            except IncrementalFallback as exc:
                instrument.count("phase.fallback", 1)
                report = self._rebuild(grammar, delta, fell_back=True, reason=str(exc))
                return report
        return self._rebuild(
            grammar, delta, fell_back=False, reason=delta.detail
        )

    def _splice(self, grammar: Grammar, delta: GrammarDelta) -> UpdateReport:
        old = self.artifacts
        with instrument.span("session.splice"):
            automaton, dirty, dirty_ids = splice_lr0(
                old.automaton, grammar, delta.changed, delta.dirty_nonterminals
            )
            relations, changed_reads, changed_includes = splice_relations(
                old.relations,
                automaton,
                dirty_ids,
                delta.changed,
                delta.dirty_nonterminals,
            )
            analysis = LalrAnalysis.spliced_from(
                old.analysis, automaton, relations, changed_reads, changed_includes
            )
            table = refill_lalr_table(
                old.table, automaton, analysis.la_masks, analysis.la_changed_sites, dirty
            )
        self._remember(old)
        self.artifacts = PhaseArtifacts(
            grammar, grammar_fingerprint(grammar), automaton, relations, analysis, table
        )
        instrument.count("phase.reuse", len(SESSION_PHASES))
        return UpdateReport(
            delta.kind,
            "splice",
            False,
            delta.detail,
            dirty_states=len(dirty_ids),
            total_states=len(automaton.states),
        )

    def _rebuild(
        self, grammar: Grammar, delta: GrammarDelta, fell_back: bool, reason: str
    ) -> UpdateReport:
        self._remember(self.artifacts)
        self.artifacts = self._build_full(grammar)
        return UpdateReport(
            delta.kind,
            "rebuild",
            fell_back,
            reason,
            total_states=len(self.artifacts.automaton.states),
        )

    # -- internals -----------------------------------------------------

    def _build_full(self, grammar: Grammar) -> PhaseArtifacts:
        with instrument.span("session.rebuild"):
            automaton = LR0Automaton(grammar)
            analysis = LalrAnalysis(grammar, automaton, record_walks=True)
            if self._table_cache is not None:
                table = self._table_cache.load_or_build(
                    grammar,
                    "lalr1",
                    lambda g: build_lalr_table(
                        g, automaton, la_masks=analysis.la_masks
                    ),
                )
            else:
                table = build_lalr_table(
                    grammar, automaton, la_masks=analysis.la_masks
                )
        instrument.count("phase.recompute", len(SESSION_PHASES))
        return PhaseArtifacts(
            grammar,
            grammar_fingerprint(grammar),
            automaton,
            analysis.relations,
            analysis,
            table,
        )

    def _remember(self, artifacts: PhaseArtifacts) -> None:
        if not self._memo_size:
            return
        key = artifacts.fingerprint
        self._memo[key] = artifacts
        self._memo.move_to_end(key)
        while len(self._memo) > self._memo_size:
            self._memo.popitem(last=False)


def _same_layout(old: Grammar, new: Grammar) -> bool:
    """True when the two grammars share their Symbol objects and layout —
    the precondition for serving one's artifacts as the other's (the
    name-based fingerprint alone cannot see object identity)."""
    old_ids, new_ids = old.ids, new.ids
    return old_ids is new_ids or (
        old_ids.num_symbols == new_ids.num_symbols
        and all(a is b for a, b in zip(old_ids.by_sid, new_ids.by_sid))
    )
