"""The four relations of DeRemer & Pennello: DR, reads, includes, lookback.

All are defined over *nonterminal transitions* of the LR(0) automaton —
pairs ``(p, A)`` such that ``goto(p, A)`` is defined:

- ``DR(p, A)``: terminals directly readable after traversing the
  transition: ``{ t : goto(goto(p,A), t) defined }``.
- ``(p, A) reads (r, C)``: with ``r = goto(p, A)``, the automaton can hop
  over a nullable ``C`` out of ``r`` and keep reading — so whatever can be
  read after ``(r, C)`` can also follow ``(p, A)``.
- ``(p, A) includes (p', B)``: there is a production ``B -> β A γ`` with
  ``γ =>* ε`` and ``p' --β--> p``; a reduction context for ``B`` at ``p'``
  is therefore also one for this ``A`` transition.
- ``(q, A -> ω) lookback (p, A)``: ``p --ω--> q``; when state ``q``
  reduces by ``A -> ω`` the automaton pops back to some such ``p`` and
  takes its ``A`` transition, so LA(q, A -> ω) collects Follow(p, A).

`includes` and `lookback` are computed together by a single forward walk
along each production's right-hand side from each transition source — the
same trick later adopted by Bison's implementation of this paper.

**Representation (the integer core).**  A nonterminal transition is a
single packed int ``state_id * num_nonterminals + nt_id``; the node set
is the dense index ``0..n_nodes-1`` into :attr:`LalrRelations.packed`.
`reads` and `includes` are CSR-style adjacency lists — one flat
``array('i')`` of successor node indices plus an offsets array — which
is exactly the shape :func:`repro.core.digraph.digraph_int` consumes
without hashing anything.  DR sets are bitmasks whose bit positions are
terminal IDs (identical to :class:`~repro.core.bitset.TerminalVocabulary`
bit positions by construction).

The Symbol-keyed attributes of the pre-integer era (``transitions``,
``dr``, ``reads``, ``includes``, ``lookback``) remain available as
lazily built views for diagnostics, rendering, the NQLALR baseline and
tests; the hot pipeline never touches them.

Everything here is pure relation *construction*; the unions over the
relations happen in :mod:`repro.core.lalr` via the Digraph algorithm.
"""

from __future__ import annotations

from array import array
from typing import Dict, FrozenSet, List, Tuple

from ..analysis.nullable import nullable_nonterminals
from ..automaton.lr0 import LR0Automaton
from ..grammar.symbols import Symbol
from . import instrument
from .bitset import TerminalVocabulary

#: A nonterminal transition: (source state id, nonterminal symbol).
Transition = Tuple[int, Symbol]

#: A reduction site: (state id, production index).
ReductionSite = Tuple[int, int]


class LalrRelations:
    """All relations needed for the LALR(1) look-ahead computation.

    Construction walks the LR(0) automaton once; the resulting arrays
    are immutable-by-convention and consumed by
    :class:`repro.core.lalr.LalrAnalysis`.

    Integer-core attributes (the pipeline's working set):

    - ``n_nodes`` / ``packed``: node count and the packed transition id
      (``state * num_nonterminals + nt_id``) per dense node index.
    - ``dr_masks``: per-node DR bitmask (bit position = terminal ID).
    - ``reads_offsets`` / ``reads_adj``: CSR adjacency of `reads`.
    - ``includes_offsets`` / ``includes_adj``: CSR adjacency of `includes`.
    - ``lookback_nodes``: reduction site -> list of node indices.

    Symbol-level views (lazy; identical content to the pre-refactor
    dicts): ``transitions``, ``dr``, ``reads``, ``includes``,
    ``lookback``.
    """

    def __init__(
        self,
        automaton: LR0Automaton,
        vocabulary: "TerminalVocabulary | None" = None,
        budget=None,
        record_walks: bool = False,
    ):
        self.automaton = automaton
        self.grammar = automaton.grammar
        self.ids = self.grammar.ids
        self.vocabulary = vocabulary or TerminalVocabulary(self.grammar)
        self.nullable: FrozenSet[Symbol] = nullable_nonterminals(self.grammar)
        self.num_nonterminals = self.ids.num_nonterminals

        self.packed: "array" = automaton.nonterminal_transition_ids
        self.n_nodes = len(self.packed)
        #: packed transition id -> dense node index.
        self.node_index: Dict[int, int] = {
            p: i for i, p in enumerate(self.packed)
        }

        self.dr_masks: List[int] = []
        self.reads_offsets: "array" = array("i")
        self.reads_adj: "array" = array("i")
        self.includes_offsets: "array" = array("i")
        self.includes_adj: "array" = array("i")
        self.lookback_nodes: Dict[ReductionSite, List[int]] = {}

        # Per-node walk memos for the incremental pipeline (recorded only
        # when *record_walks* is set — sessions set it, one-shot callers
        # don't pay for it).  For node n:
        #   walk_edges[n]  — includes-edge targets, in emission order;
        #   walk_sites[n]  — the lookback sites n feeds, one per production;
        #   walk_states[n] — every state any of n's walks touched.
        # An unchanged walk is replayed by appending these verbatim.
        self.walk_edges: "List[List[int]] | None" = None
        self.walk_sites: "List[List[ReductionSite]] | None" = None
        self.walk_states: "List[List[int]] | None" = None
        self._record_walks = record_walks
        # Per-node successor state ids (goto targets), built lazily by the
        # splice layer.  Invariant across rhs splices: the lr0 guards
        # pin both the node space and every successor state id.
        self.successors: "array | None" = None
        # Inverted indexes for the splice layer, built on the first
        # splice and carried: state -> nodes whose goto target it is
        # (``readers``, invariant like ``successors``), and
        # ``walk_index`` = (state -> nodes whose walks step through it,
        # nt id -> nodes with that lhs).  See
        # :mod:`repro.core.relations_delta`.
        self.readers: "List[List[int]] | None" = None
        self.walk_index: "Tuple[List[List[int]], List[List[int]]] | None" = None
        # Reverse (predecessor) views of the reads/includes CSRs, built
        # lazily by the incremental digraph passes and *patched* across
        # splices (only changed rows move) rather than rebuilt.
        self.reads_reverse: "List[List[int]] | None" = None
        self.includes_reverse: "List[List[int]] | None" = None

        # Lazily built Symbol-level views.
        self._transitions_view: "List[Transition] | None" = None
        self._dr_view: "Dict[Transition, int] | None" = None
        self._reads_view: "Dict[Transition, Tuple[Transition, ...]] | None" = None
        self._includes_view: "Dict[Transition, List[Transition]] | None" = None
        self._lookback_view: "Dict[ReductionSite, List[Transition]] | None" = None
        # (dr_bits, lookback_edges) for stats(): summed on first use,
        # carried and adjusted across splices.
        self._totals: "Tuple[int, int] | None" = None

        self._budget = budget
        if budget is not None:
            budget.enter_phase("relations")
        with instrument.span("lalr.relations"):
            self._compute_dr_and_reads()
            self._compute_includes_and_lookback()
        if budget is not None:
            self._budget = None
            budget.publish()
        if instrument.enabled():
            instrument.absorb("relations", self.stats())

    # -- DR and reads --------------------------------------------------

    def _compute_dr_and_reads(self) -> None:
        """One pass over the nodes: DR masks and the `reads` CSR rows.

        The successor state's outgoing IDs split at ``num_terminals``:
        terminal IDs go straight into the DR bitmask (bit = terminal ID),
        nullable nonterminal IDs become `reads` edges.
        """
        states = self.automaton.states
        ids = self.ids
        num_terminals = ids.num_terminals
        num_nonterminals = self.num_nonterminals
        nullable_ids = bytearray(num_nonterminals)
        for symbol in self.nullable:
            nullable_ids[ids.nonterminal_id(symbol)] = 1

        node_index = self.node_index
        dr_masks = self.dr_masks
        budget = self._budget
        offsets, adj = self.reads_offsets, self.reads_adj
        offsets.append(0)
        for packed_id in self.packed:
            if budget is not None:
                budget.tick()
            state_id, nt_id = divmod(packed_id, num_nonterminals)
            successor = states[state_id].targets[num_terminals + nt_id]
            successor_state = states[successor]
            targets = successor_state.targets
            mask = 0
            base = successor * num_nonterminals
            for out_sid in successor_state.out_sids:
                if out_sid < num_terminals:
                    mask |= 1 << out_sid
                elif nullable_ids[out_sid - num_terminals]:
                    adj.append(node_index[base + out_sid - num_terminals])
            dr_masks.append(mask)
            offsets.append(len(adj))

    # -- includes and lookback ---------------------------------------------

    def _compute_includes_and_lookback(self) -> None:
        """One forward walk per (transition, production of its nonterminal).

        From ``(p', B)`` and production ``B -> x1 ... xn`` we walk states
        ``p' = s0 --x1--> s1 --x2--> ... --xn--> sn``.  At position i where
        ``x_{i+1}`` is a nonterminal and ``x_{i+2} ... xn`` are all
        nullable, ``(s_i, x_{i+1}) includes (p', B)``.  At the end,
        ``(s_n, B -> x1...xn) lookback (p', B)``.

        Edges arrive bucketed per *target* node; they are flattened into
        the CSR arrays afterwards.
        """
        states = self.automaton.states
        grammar = self.grammar
        ids = self.ids
        num_terminals = ids.num_terminals
        num_nonterminals = self.num_nonterminals
        nullable_ids = bytearray(num_nonterminals)
        for symbol in self.nullable:
            nullable_ids[ids.nonterminal_id(symbol)] = 1
        node_index = self.node_index

        budget = self._budget
        recording = self._record_walks
        if recording:
            self.walk_edges = walk_edges = []
            self.walk_sites = walk_sites = []
            self.walk_states = walk_states = []
        buckets: List[List[int]] = [[] for _ in range(self.n_nodes)]
        for node, packed_id in enumerate(self.packed):
            source, lhs_nt_id = divmod(packed_id, num_nonterminals)
            if recording:
                node_edges: List[int] = []
                node_sites: List[ReductionSite] = []
                node_states: List[int] = [source]
            for production in grammar.productions_for_ntid(lhs_nt_id):
                if budget is not None:
                    budget.tick()
                rhs_sids = production.rhs_sids
                n = len(rhs_sids)
                # suffix_nullable[i] iff rhs[i:] =>* epsilon.
                suffix_nullable = bytearray(n + 1)
                suffix_nullable[n] = 1
                for i in range(n - 1, -1, -1):
                    sid = rhs_sids[i]
                    suffix_nullable[i] = (
                        sid >= num_terminals
                        and nullable_ids[sid - num_terminals]
                        and suffix_nullable[i + 1]
                    )

                state = source
                for i in range(n):
                    sid = rhs_sids[i]
                    if sid >= num_terminals and suffix_nullable[i + 1]:
                        edge_node = node_index.get(
                            state * num_nonterminals + sid - num_terminals
                        )
                        # goto(state, symbol) is defined whenever the walk
                        # continues, but guard for robustness.
                        if edge_node is not None:
                            buckets[edge_node].append(node)
                            if recording:
                                node_edges.append(edge_node)
                    next_state = states[state].targets[sid]
                    assert next_state >= 0, (
                        "automaton is missing a transition the closure implies"
                    )
                    state = next_state
                    if recording:
                        node_states.append(state)
                site = (state, production.index)
                self.lookback_nodes.setdefault(site, []).append(node)
                if recording:
                    node_sites.append(site)
            if recording:
                walk_edges.append(node_edges)
                walk_sites.append(node_sites)
                walk_states.append(node_states)

        offsets, adj = self.includes_offsets, self.includes_adj
        offsets.append(0)
        for bucket in buckets:
            adj.extend(bucket)
            offsets.append(len(adj))

    # -- node <-> Symbol boundary ---------------------------------------

    def transition_at(self, node: int) -> Transition:
        """The Symbol-level (state, nonterminal) for dense node *node*."""
        state_id, nt_id = divmod(self.packed[node], self.num_nonterminals)
        return (state_id, self.ids.nonterminal(nt_id))

    def node_of(self, transition: Transition) -> int:
        """The dense node index for a Symbol-level transition (KeyError
        if it is not a nonterminal transition of the automaton)."""
        state_id, symbol = transition
        packed_id = state_id * self.num_nonterminals + self.ids.nonterminal_id(symbol)
        return self.node_index[packed_id]

    # -- Symbol-level views (lazy; diagnostics and baselines only) -----

    @property
    def transitions(self) -> List[Transition]:
        """All nonterminal transitions, in deterministic order."""
        view = self._transitions_view
        if view is None:
            view = [self.transition_at(i) for i in range(self.n_nodes)]
            self._transitions_view = view
        return view

    @property
    def dr(self) -> Dict[Transition, int]:
        """``dr[(p, A)]`` — the DR set as a terminal bitmask."""
        view = self._dr_view
        if view is None:
            transitions = self.transitions
            view = {transitions[i]: self.dr_masks[i] for i in range(self.n_nodes)}
            self._dr_view = view
        return view

    def _expand_csr(
        self, offsets: "array", adj: "array"
    ) -> "Dict[Transition, List[Transition]]":
        transitions = self.transitions
        return {
            transitions[i]: [
                transitions[adj[j]] for j in range(offsets[i], offsets[i + 1])
            ]
            for i in range(self.n_nodes)
        }

    @property
    def reads(self) -> Dict[Transition, Tuple[Transition, ...]]:
        """``reads[(p, A)]`` — successor transitions under `reads`."""
        view = self._reads_view
        if view is None:
            view = {
                transition: tuple(edges)
                for transition, edges in self._expand_csr(
                    self.reads_offsets, self.reads_adj
                ).items()
            }
            self._reads_view = view
        return view

    @property
    def includes(self) -> Dict[Transition, List[Transition]]:
        """``includes[(p, A)]`` — successor transitions under `includes`."""
        view = self._includes_view
        if view is None:
            view = self._expand_csr(self.includes_offsets, self.includes_adj)
            self._includes_view = view
        return view

    @property
    def lookback(self) -> Dict[ReductionSite, List[Transition]]:
        """``lookback[(q, prod)]`` — the transitions whose Follow sets
        feed LA(q, prod)."""
        view = self._lookback_view
        if view is None:
            transitions = self.transitions
            view = {
                site: [transitions[node] for node in nodes]
                for site, nodes in self.lookback_nodes.items()
            }
            self._lookback_view = view
        return view

    # -- reporting -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        totals = self._totals
        if totals is None:
            totals = self._totals = (
                sum(self.vocabulary.count(m) for m in self.dr_masks),
                sum(len(e) for e in self.lookback_nodes.values()),
            )
        return {
            "nonterminal_transitions": self.n_nodes,
            "dr_bits": totals[0],
            "reads_edges": len(self.reads_adj),
            "includes_edges": len(self.includes_adj),
            "lookback_edges": totals[1],
            "reduction_sites": len(self.lookback_nodes),
        }
