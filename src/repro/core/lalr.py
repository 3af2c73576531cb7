"""The DeRemer–Pennello LALR(1) look-ahead computation, end to end.

Pipeline (section 3 of DESIGN.md)::

    LR(0) automaton
        -> relations (DR, reads, includes, lookback)
        -> Read  = Digraph(reads,    DR)
        -> Follow = Digraph(includes, Read)
        -> LA(q, A -> ω) = ⋃ Follow(p, A) over lookback

:class:`LalrAnalysis` runs the pipeline once at construction and exposes
the LA sets plus the paper's diagnostics:

- ``not_lr_k`` / ``reads_sccs``: a nontrivial SCC in `reads` proves the
  grammar is **not LR(k) for any k** (the paper's Theorem — two nullable
  nonterminals reading each other make the automaton loop without
  consuming input).
- ``includes_sccs``: nontrivial `includes` components are legal (the
  shared Follow set is still correct for LALR(1)) but they are exactly
  where LALR's merging collapses left context, so they are surfaced for
  grammar debugging.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from ..automaton.lr0 import LR0Automaton
from ..grammar.grammar import Grammar
from ..grammar.symbols import Symbol
from . import instrument
from .bitset import TerminalVocabulary
from .digraph import (
    DigraphStats,
    build_reverse_adjacency,
    digraph_int,
    digraph_int_incremental,
)
from .relations import LalrRelations, ReductionSite, Transition


class LalrAnalysis:
    """LALR(1) look-ahead sets for one grammar, via DeRemer–Pennello.

    Args:
        grammar: Any grammar; it is augmented if necessary.
        automaton: Optionally, a pre-built LR(0) automaton to reuse.
        budget: Optional :class:`repro.core.budget.Budget` governing the
            whole pipeline (LR(0) build when not pre-built, relations,
            both Digraph passes, LA unions); exhaustion raises
            :class:`repro.core.budget.BudgetExceeded` carrying the phase
            reached and partial-progress counters.

    Attributes:
        automaton: The LR(0) automaton everything is computed on.
        relations: The constructed relations (sizes, for inspection).
        read_sets / follow_sets: Per nonterminal-transition bitmasks.
        la_masks: ``(state, production index) -> bitmask``.
        stats: Digraph operation counters for the cost benchmarks.
    """

    def __init__(
        self,
        grammar: Grammar,
        automaton: "LR0Automaton | None" = None,
        budget=None,
        record_walks: bool = False,
    ):
        if automaton is None:
            automaton = LR0Automaton(grammar, budget=budget)
        self.automaton = automaton
        self.grammar = automaton.grammar
        self.vocabulary = TerminalVocabulary(self.grammar)
        self.relations = LalrRelations(
            automaton, self.vocabulary, budget=budget, record_walks=record_walks
        )
        self.stats = DigraphStats()

        relations = self.relations
        n_nodes = relations.n_nodes

        # Both Digraph passes run on the integer core: dense node
        # indices, CSR adjacency, flat mask lists — no Symbol hashing.

        # Phase 1: Read = Digraph over `reads`, seeded with DR.
        if budget is not None:
            budget.enter_phase("digraph.reads")
        with instrument.span("lalr.digraph.reads"):
            self._read_masks, reads_scc_nodes = digraph_int(
                n_nodes,
                relations.reads_offsets,
                relations.reads_adj,
                relations.dr_masks,
                self.stats,
                budget=budget,
            )

        # Phase 2: Follow = Digraph over `includes`, seeded with Read.
        if budget is not None:
            budget.enter_phase("digraph.includes")
        with instrument.span("lalr.digraph.includes"):
            self._follow_masks, includes_scc_nodes = digraph_int(
                n_nodes,
                relations.includes_offsets,
                relations.includes_adj,
                self._read_masks,
                self.stats,
                budget=budget,
            )

        self._finish(reads_scc_nodes, includes_scc_nodes, budget)

    def _finish(
        self,
        reads_scc_nodes: List[Tuple[int, ...]],
        includes_scc_nodes: List[Tuple[int, ...]],
        budget=None,
        old: "LalrAnalysis | None" = None,
        dirty_follow: "bytearray | None" = None,
    ) -> None:
        """Phase 3 (LA unions) plus the shared epilogue.

        Factored out of ``__init__`` so the incremental assembly path
        (:meth:`spliced_from`) finishes identically.  From scratch the LA
        dict is built here in ``lookback_nodes`` insertion order.  On a
        splice (*old* given) the lookback relation is *old*'s own object
        (the relations splice falls back otherwise), so *old*'s dict is
        copied — same keys, same order — and only the sites fed by a
        node of *dirty_follow* whose Follow mask changed are re-unioned;
        ``la_masks`` comes out bit-identical either way.
        ``la_changed_sites`` lists the sites whose mask differs from
        *old*'s (None from scratch).
        """
        relations = self.relations
        # Phase 3: LA = union of Follow over `lookback`.
        if budget is not None:
            budget.enter_phase("la")
        with instrument.span("lalr.la"):
            self.la_changed_sites: "List[ReductionSite] | None" = None
            if old is not None:
                self._patch_la(old, dirty_follow)
            else:
                follow_masks = self._follow_masks
                stats = self.stats
                self.la_masks: Dict[ReductionSite, int] = {}
                unions_before = stats.unions
                for site, lookback_nodes in relations.lookback_nodes.items():
                    if budget is not None:
                        budget.tick()
                    mask = 0
                    for node in lookback_nodes:
                        mask |= follow_masks[node]
                        stats.unions += 1
                    self.la_masks[site] = mask
                # One union per lookback edge; kept so a splice can
                # report the same stats.unions without a recount.
                self._la_unions = stats.unions - unions_before
        if budget is not None:
            budget.publish()
        instrument.count("lalr.lookahead_sites", len(self.la_masks))

        # Node-level SCCs are kept for the incremental path (clean ones
        # survive an edit verbatim); the Symbol-level views below are the
        # public diagnostics.
        self._reads_scc_nodes = reads_scc_nodes
        self._includes_scc_nodes = includes_scc_nodes
        # SCC diagnostics are rare and small: widen to Symbol-level
        # transitions eagerly so the public attributes keep their
        # pre-refactor shape.
        self.reads_sccs: List[Tuple[Transition, ...]] = [
            tuple(relations.transition_at(node) for node in component)
            for component in reads_scc_nodes
        ]
        self.includes_sccs: List[Tuple[Transition, ...]] = [
            tuple(relations.transition_at(node) for node in component)
            for component in includes_scc_nodes
        ]
        self._read_sets_view: "Dict[Transition, int] | None" = None
        self._follow_sets_view: "Dict[Transition, int] | None" = None

    def _patch_la(self, old: "LalrAnalysis", dirty_follow: bytearray) -> None:
        """The LA dict of a splice, which shares *old*'s lookback relation.

        LA(site) is the union of Follow over the site's lookback nodes,
        so it can differ only at the sites (``walk_sites``) fed by a
        node whose Follow mask changed — and only the incremental
        includes pass's dirty nodes can have changed.  ``stats.unions``
        still counts one union per lookback edge, as the full build
        does; the lookback relation is unchanged, so that count is
        *old*'s.
        """
        relations = self.relations
        assert relations.lookback_nodes is old.relations.lookback_nodes
        follow_masks, old_follow = self._follow_masks, old._follow_masks
        walk_sites = relations.walk_sites
        stale = set()
        node = dirty_follow.find(1)
        while node >= 0:
            if follow_masks[node] != old_follow[node]:
                stale.update(walk_sites[node])
            node = dirty_follow.find(1, node + 1)
        la_masks = self.la_masks = dict(old.la_masks)
        lookback = relations.lookback_nodes
        changed: List[ReductionSite] = []
        for site in stale:
            mask = 0
            for node in lookback[site]:
                mask |= follow_masks[node]
            if mask != la_masks[site]:
                la_masks[site] = mask
                changed.append(site)
        self.la_changed_sites = changed
        self._la_unions = old._la_unions
        self.stats.unions += self._la_unions

    @classmethod
    def spliced_from(
        cls,
        old: "LalrAnalysis",
        automaton: LR0Automaton,
        relations: LalrRelations,
        changed_reads: List[int],
        changed_includes: List[int],
    ) -> "LalrAnalysis":
        """Assemble the edited grammar's analysis by patching *old*'s.

        *automaton*/*relations* come from the splice layers
        (:func:`repro.automaton.lr0_delta.splice_lr0`,
        :func:`repro.core.relations_delta.splice_relations`) over the
        same node space as *old*; *changed_reads*/*changed_includes* are
        the relation rows that actually differ.  Both Digraph passes are
        patched via :func:`digraph_int_incremental` (bit-identical masks
        by least-fixed-point uniqueness); surviving all-clean SCCs are
        carried over from *old* — SCC membership is uniformly dirty or
        clean, so the merged list equals a from-scratch run's as a set,
        though possibly in different order.
        """
        self = object.__new__(cls)
        self.automaton = automaton
        self.grammar = automaton.grammar
        self.vocabulary = relations.vocabulary
        self.relations = relations
        self.stats = DigraphStats()
        n_nodes = relations.n_nodes

        # The reverse views are cached on the relations object: the
        # splice layer patches them across edits, so after the first
        # incremental pass the O(edges) rebuild disappears.
        if relations.reads_reverse is None:
            relations.reads_reverse = build_reverse_adjacency(
                n_nodes, relations.reads_offsets, relations.reads_adj
            )
        if relations.includes_reverse is None:
            relations.includes_reverse = build_reverse_adjacency(
                n_nodes, relations.includes_offsets, relations.includes_adj
            )
        with instrument.span("lalr.digraph.reads"):
            read_masks, dirty_reads_sccs, dirty_reads = digraph_int_incremental(
                n_nodes,
                relations.reads_offsets,
                relations.reads_adj,
                relations.dr_masks,
                old._read_masks,
                changed_reads,
                self.stats,
                reverse=relations.reads_reverse,
            )
        self._read_masks = read_masks
        reads_scc_nodes = [
            component
            for component in old._reads_scc_nodes
            if not dirty_reads[component[0]]
        ] + dirty_reads_sccs

        # The includes pass sees a changed input wherever the includes
        # row changed *or* the node's Read mask (its seed) changed.
        old_read_masks = old._read_masks
        includes_seeds = list(changed_includes)
        seeded = set(changed_includes)
        node = dirty_reads.find(1)
        while node >= 0:
            if read_masks[node] != old_read_masks[node] and node not in seeded:
                includes_seeds.append(node)
            node = dirty_reads.find(1, node + 1)
        with instrument.span("lalr.digraph.includes"):
            follow_masks, dirty_includes_sccs, dirty_includes = (
                digraph_int_incremental(
                    n_nodes,
                    relations.includes_offsets,
                    relations.includes_adj,
                    read_masks,
                    old._follow_masks,
                    includes_seeds,
                    self.stats,
                    reverse=relations.includes_reverse,
                )
            )
        self._follow_masks = follow_masks
        includes_scc_nodes = [
            component
            for component in old._includes_scc_nodes
            if not dirty_includes[component[0]]
        ] + dirty_includes_sccs

        self._finish(
            reads_scc_nodes, includes_scc_nodes, old=old, dirty_follow=dirty_includes
        )
        return self

    # -- diagnostics -----------------------------------------------------

    @property
    def not_lr_k(self) -> bool:
        """True when the grammar is provably not LR(k) for any k
        (nontrivial cycle in `reads`)."""
        return bool(self.reads_sccs)

    # -- Symbol-keyed set views (boundary; lazily built) -----------------

    @property
    def read_sets(self) -> Dict[Transition, int]:
        """Per nonterminal-transition Read bitmasks, Symbol-keyed."""
        view = self._read_sets_view
        if view is None:
            transitions = self.relations.transitions
            masks = self._read_masks
            view = {transitions[i]: masks[i] for i in range(len(masks))}
            self._read_sets_view = view
        return view

    @property
    def follow_sets(self) -> Dict[Transition, int]:
        """Per nonterminal-transition Follow bitmasks, Symbol-keyed."""
        view = self._follow_sets_view
        if view is None:
            transitions = self.relations.transitions
            masks = self._follow_masks
            view = {transitions[i]: masks[i] for i in range(len(masks))}
            self._follow_sets_view = view
        return view

    # -- queries -----------------------------------------------------------

    def lookahead(self, state_id: int, production_index: int) -> FrozenSet[Symbol]:
        """LA(q, A -> ω) as a set of terminals.

        For the augmented production 0 the LA set is empty by construction
        (its reduction is the accept action and is never taken by
        lookahead); a query for a (state, production) pair that is not a
        reduction site raises KeyError.
        """
        return self.vocabulary.symbols(self.la_masks[(state_id, production_index)])

    def lookahead_table(self) -> Dict[ReductionSite, FrozenSet[Symbol]]:
        """All LA sets, widened to symbol sets."""
        return {
            site: self.vocabulary.symbols(mask)
            for site, mask in self.la_masks.items()
        }

    def read_set(self, transition: Transition) -> FrozenSet[Symbol]:
        return self.vocabulary.symbols(
            self._read_masks[self.relations.node_of(transition)]
        )

    def follow_set(self, transition: Transition) -> FrozenSet[Symbol]:
        return self.vocabulary.symbols(
            self._follow_masks[self.relations.node_of(transition)]
        )

    def dr_set(self, transition: Transition) -> FrozenSet[Symbol]:
        return self.vocabulary.symbols(
            self.relations.dr_masks[self.relations.node_of(transition)]
        )

    # -- reporting -----------------------------------------------------

    def describe(self) -> str:
        """Multi-line report of all Follow and LA sets (debugging aid)."""
        lines: List[str] = []
        for transition in self.relations.transitions:
            state, symbol = transition
            follow = sorted(t.name for t in self.follow_set(transition))
            lines.append(f"Follow({state}, {symbol.name}) = {{{', '.join(follow)}}}")
        for (state, production_index), mask in sorted(self.la_masks.items()):
            production = self.grammar.productions[production_index]
            la = sorted(t.name for t in self.vocabulary.symbols(mask))
            lines.append(f"LA({state}, {production}) = {{{', '.join(la)}}}")
        if self.not_lr_k:
            lines.append(
                f"grammar is not LR(k): {len(self.reads_sccs)} nontrivial reads-SCC(s)"
            )
        return "\n".join(lines)

    def cost_summary(self) -> Dict[str, int]:
        """Machine-independent cost counters (Table 2 of EXPERIMENTS.md)."""
        summary = dict(self.relations.stats())
        summary.update(self.stats.as_dict())
        summary["lr0_states"] = len(self.automaton)
        return summary


def compute_lookaheads(
    grammar: Grammar, automaton: "LR0Automaton | None" = None, budget=None
) -> Dict[ReductionSite, FrozenSet[Symbol]]:
    """Convenience one-shot: LA sets for every reduction site of *grammar*."""
    return LalrAnalysis(grammar, automaton, budget=budget).lookahead_table()
