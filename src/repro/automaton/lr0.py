"""The LR(0) automaton (canonical collection of LR(0) item sets).

This is the substrate the DeRemer–Pennello algorithm runs on: all four of
its relations (DR, reads, includes, lookback) are defined purely in terms
of this automaton's states and transitions plus grammar nullability.

States are identified by dense integer ids; state 0 is the start state
(kernel ``{S' -> . S $end}``).

**Kernel-centric construction.**  States are built and interned from
their *kernels only*; full closures are never materialized during
construction.  Three ideas make that possible:

- items are packed ints ``production_index << dot_shift | dot``, so a
  kernel is a sorted int tuple (cheap to hash, orders exactly like the
  ``(production, dot)`` tuples it replaces) and advancing the dot is
  ``code + 1``;
- the closure of ``{A -> . gamma}`` items is state-independent, so one
  grammar-global pass precomputes, per nonterminal: which nonterminals
  its productions expose at dot 0 (``_nt_first_nts``), its epsilon
  reductions (``_nt_epsilon_items``), and the ``(sid, advanced-code)``
  shift contributions of its productions (``_nt_shift_entries``);
- per state, closure then collapses to a breadth-first sweep over
  *nonterminal ids* seeded by the kernel's dot symbols — successor
  buckets and reductions are assembled from the precomputed per-
  nonterminal entries without creating a single derived :class:`Item`.

The sweep visits nonterminals in exactly the order the classic item-level
worklist closure first expands them, so state numbering, closure order,
reduction order and every dump stay **bit-identical** to the eager
builder this replaced (retained as
:mod:`repro.automaton.lr0_reference` for differential testing).

Transitions are stored on the **integer core**: each state keeps a flat
``array('i')`` row indexed by dense symbol ID (-1 = no transition) plus
the ordered list of outgoing IDs, so the hot paths (relation
construction, table fill) never hash a :class:`Symbol`.  The legacy
``state.kernel`` / ``state.closure`` / ``state.transitions`` attributes
remain available as lazily built views for rendering, diagnostics and
the kernel-merging baselines.
"""

from __future__ import annotations

from array import array
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..grammar.errors import GrammarValidationError
from ..grammar.grammar import Grammar
from ..grammar.symbols import Symbol, SymbolIds
from .items import Item, format_item


def closure_row(
    grammar: Grammar, nt_id: int, shift: int
) -> "Tuple[Tuple[int, ...], Tuple[Item, ...], Tuple[Tuple[int, int], ...]]":
    """One nonterminal's row of the closure tables (see
    :meth:`LR0Automaton._prepare_closure_tables`): the nonterminal ids
    its productions expose at dot 0, its ``A -> .`` items, and its
    ``(sid, packed Item(p, 1))`` shift entries — all in declaration
    order.  A row depends only on *nt_id*'s own productions and the dot
    width *shift*."""
    num_terminals = grammar.ids.num_terminals
    exposed: List[int] = []
    finals: List[Item] = []
    entries: List[Tuple[int, int]] = []
    for production in grammar.productions_for_ntid(nt_id):
        rhs_sids = production.rhs_sids
        if rhs_sids:
            first_sid = rhs_sids[0]
            entries.append((first_sid, (production.index << shift) | 1))
            if first_sid >= num_terminals:
                exposed.append(first_sid - num_terminals)
        else:
            finals.append(Item(production.index, 0))
    return tuple(exposed), tuple(finals), tuple(entries)


class LR0State:
    """One state of the LR(0) automaton.

    Attributes:
        state_id: Dense integer id.
        kernel_codes: The kernel items as a sorted tuple of packed ints
            (``production << dot_shift | dot``) — the interning key.
        derived_nts: Nonterminal ids whose productions the closure adds,
            in expansion order (``array('i')``).
        targets: Flat transition row, ``targets[sid]`` = successor state
            id or -1; indexed by dense symbol ID.
        out_sids: The symbol IDs with outgoing transitions, in the
            deterministic (declaration) order successors were created.
        reductions: Final items, i.e. productions this state may reduce by.

    ``kernel`` (a ``frozenset`` of :class:`Item`) and ``closure`` (the
    ordered item tuple) are lazy views decoded from the packed core on
    first access.
    """

    __slots__ = (
        "state_id",
        "kernel_codes",
        "derived_nts",
        "targets",
        "out_sids",
        "reductions",
        "_automaton",
        "_transition_view",
        "_kernel_view",
        "_closure_view",
    )

    def __init__(
        self,
        state_id: int,
        kernel_codes: Tuple[int, ...],
        derived_nts: "array",
        reductions: Tuple[Item, ...],
        automaton: "LR0Automaton",
    ):
        self.state_id = state_id
        self.kernel_codes = kernel_codes
        self.derived_nts = derived_nts
        self.targets: "array" = array("i", [-1]) * automaton.ids.num_symbols
        self.out_sids: "array" = array("i")
        self.reductions = reductions
        self._automaton = automaton
        self._transition_view: "Optional[Dict[Symbol, int]]" = None
        self._kernel_view: "Optional[FrozenSet[Item]]" = None
        self._closure_view: "Optional[Tuple[Item, ...]]" = None

    @property
    def kernel(self) -> FrozenSet[Item]:
        """Kernel as a frozenset of :class:`Item` (legacy/boundary API)."""
        view = self._kernel_view
        if view is None:
            shift = self._automaton._dot_shift
            mask = self._automaton._dot_mask
            view = frozenset(Item(code >> shift, code & mask) for code in self.kernel_codes)
            self._kernel_view = view
        return view

    @property
    def closure(self) -> Tuple[Item, ...]:
        """Kernel plus derived items, in the classic worklist-closure
        order (kernel items sorted, then each expanded nonterminal's
        productions in declaration order)."""
        view = self._closure_view
        if view is None:
            automaton = self._automaton
            shift, mask = automaton._dot_shift, automaton._dot_mask
            items = [Item(code >> shift, code & mask) for code in self.kernel_codes]
            productions_for_ntid = automaton.grammar.productions_for_ntid
            for nt_id in self.derived_nts:
                items.extend(
                    Item(production.index, 0)
                    for production in productions_for_ntid(nt_id)
                )
            view = tuple(items)
            self._closure_view = view
        return view

    @property
    def transitions(self) -> Dict[Symbol, int]:
        """Symbol-keyed transition view (legacy/boundary API).

        Built lazily from the ID row; iteration order matches the
        deterministic successor-creation order, exactly as the eager
        dict did before the integer-core refactor.
        """
        view = self._transition_view
        if view is None:
            targets, symbol_of = self.targets, self._automaton.ids.by_sid
            view = {symbol_of[sid]: targets[sid] for sid in self.out_sids}
            self._transition_view = view
        return view

    def __repr__(self) -> str:
        return f"LR0State({self.state_id}, kernel={len(self.kernel_codes)} items)"


class LR0Automaton:
    """Canonical LR(0) collection for an augmented grammar."""

    def __init__(self, grammar: Grammar, budget=None):
        # Imported here, not at module level: repro.core.lalr imports this
        # module, so a top-level import of repro.core would be circular.
        from ..core import instrument

        if not grammar.is_augmented:
            grammar = grammar.augmented()
        self.grammar = grammar
        self.ids: SymbolIds = grammar.ids
        self.states: List[LR0State] = []
        self._kernel_index: Dict[Tuple[int, ...], int] = {}
        # predecessors[q][sid] = sorted tuple of states p with
        # goto(p, symbol(sid)) = q.  Built lazily: only lookback-style
        # backward walks and a few diagnostics ever need it.
        self._predecessors: "Optional[Dict[int, Dict[int, Tuple[int, ...]]]]" = None
        # Held only for the duration of construction; cleared afterwards
        # so automata never pin a request's Budget alive.
        self._budget = budget
        if budget is not None:
            budget.enter_phase("lr0")
        with instrument.span("lr0.build"):
            self._prepare_closure_tables()
            self._build()
        if budget is not None:
            self._budget = None
            budget.publish()
        if instrument.enabled():
            instrument.count("lr0.states", len(self.states))
            instrument.count(
                "lr0.transitions", sum(len(s.out_sids) for s in self.states)
            )

    # -- construction ------------------------------------------------------

    def _prepare_closure_tables(self) -> None:
        """The grammar-global, state-independent closure tables.

        One pass over the productions fixes the item packing (the dot
        field must hold the longest right-hand side) and fills three
        per-nonterminal tables:

        - ``_nt_first_nts[nt]``: nonterminal ids at dot 0 of ``nt``'s
          productions, in declaration order — the closure's one-step
          expansion frontier;
        - ``_nt_epsilon_items[nt]``: the final ``A -> .`` items ``nt``
          contributes to a state's reductions;
        - ``_nt_shift_entries[nt]``: ``(sid, packed Item(p, 1))`` per
          non-empty production — the successor-bucket contributions of
          ``nt``'s derived items.

        The tables depend only on the grammar, so they are cached on the
        grammar instance (grammars are immutable after construction); the
        incremental splice seeds an edited grammar's cache from its
        parent's, rebuilding only the dirty rows with :func:`closure_row`.
        """
        grammar = self.grammar
        cached = grammar.__dict__.get("_closure_tables")
        if cached is not None:
            (
                self._dot_shift,
                self._dot_mask,
                self._prod_rhs_sids,
                self._nt_first_nts,
                self._nt_epsilon_items,
                self._nt_shift_entries,
            ) = cached
            return
        productions = grammar.productions
        max_rhs = max((len(p.rhs_sids) for p in productions), default=0)
        self._dot_shift = shift = max(1, max_rhs.bit_length())
        self._dot_mask = (1 << shift) - 1
        self._prod_rhs_sids = [p.rhs_sids for p in productions]
        rows = [
            closure_row(grammar, nt_id, shift)
            for nt_id in range(self.ids.num_nonterminals)
        ]
        self._nt_first_nts = [row[0] for row in rows]
        self._nt_epsilon_items = [row[1] for row in rows]
        self._nt_shift_entries = [row[2] for row in rows]
        grammar._closure_tables = (
            self._dot_shift,
            self._dot_mask,
            self._prod_rhs_sids,
            self._nt_first_nts,
            self._nt_epsilon_items,
            self._nt_shift_entries,
        )

    def _intern(
        self, kernel_codes: Tuple[int, ...]
    ) -> "Tuple[int, Optional[List[Tuple[int, int]]]]":
        """Intern a kernel (sorted packed-int tuple); returns the state id
        plus, for a *new* state, its kernel shift entries (``None`` for a
        known state — the caller's "already on the worklist" signal)."""
        existing = self._kernel_index.get(kernel_codes)
        if existing is not None:
            return existing, None
        state_id = len(self.states)
        shift, mask = self._dot_shift, self._dot_mask
        rhs_sids_of = self._prod_rhs_sids
        num_terminals = self.ids.num_terminals
        kernel_shifts: List[Tuple[int, int]] = []
        reductions: List[Item] = []
        # Expansion frontier, in kernel scan order; duplicates are fine —
        # the sweep below skips already-expanded nonterminals, exactly
        # like the item-level closure's `added` check.
        frontier: List[int] = []
        for code in kernel_codes:
            production, dot = code >> shift, code & mask
            rhs_sids = rhs_sids_of[production]
            if dot < len(rhs_sids):
                sid = rhs_sids[dot]
                kernel_shifts.append((sid, code + 1))
                if sid >= num_terminals:
                    frontier.append(sid - num_terminals)
            else:
                reductions.append(Item(production, dot))
        added = bytearray(self.ids.num_nonterminals)
        derived: "array" = array("i")
        first_nts = self._nt_first_nts
        i = 0
        while i < len(frontier):
            nt_id = frontier[i]
            i += 1
            if added[nt_id]:
                continue
            added[nt_id] = 1
            derived.append(nt_id)
            frontier.extend(first_nts[nt_id])
        epsilon_items = self._nt_epsilon_items
        for nt_id in derived:
            reductions.extend(epsilon_items[nt_id])
        state = LR0State(state_id, kernel_codes, derived, tuple(reductions), self)
        self.states.append(state)
        self._kernel_index[kernel_codes] = state_id
        if self._budget is not None:
            self._budget.charge_states(len(self.states))
        return state_id, kernel_shifts

    def _build(self) -> None:
        # order[sid] = declaration index; successors are created in
        # declaration order so state numbering is identical to the
        # Symbol-keyed implementation this replaced.
        order = self.ids.declaration_order()
        shift_entries = self._nt_shift_entries
        start_id, start_shifts = self._intern((0,))  # Item(0, 0) packs to 0
        worklist: List[Tuple[int, List[Tuple[int, int]]]] = [(start_id, start_shifts)]
        while worklist:
            state_id, kernel_shifts = worklist.pop()
            state = self.states[state_id]
            by_sid: Dict[int, List[int]] = {}
            for sid, code in kernel_shifts:
                bucket = by_sid.get(sid)
                if bucket is None:
                    by_sid[sid] = [code]
                else:
                    bucket.append(code)
            for nt_id in state.derived_nts:
                for sid, code in shift_entries[nt_id]:
                    bucket = by_sid.get(sid)
                    if bucket is None:
                        by_sid[sid] = [code]
                    else:
                        bucket.append(code)
            targets, out_sids = state.targets, state.out_sids
            # Deterministic successor order: symbol table order.
            for sid in sorted(by_sid, key=order.__getitem__):
                codes = by_sid[sid]
                codes.sort()
                successor, successor_shifts = self._intern(tuple(codes))
                targets[sid] = successor
                out_sids.append(sid)
                if successor_shifts is not None:
                    worklist.append((successor, successor_shifts))
        # worklist order above is LIFO which still enumerates everything;
        # ids are assigned at intern time so numbering is deterministic.

    def _predecessor_index(self) -> Dict[int, Dict[int, Tuple[int, ...]]]:
        index = self._predecessors
        if index is None:
            collect: Dict[int, Dict[int, List[int]]] = {}
            for state in self.states:
                targets = state.targets
                for sid in state.out_sids:
                    collect.setdefault(targets[sid], {}).setdefault(sid, []).append(
                        state.state_id
                    )
            index = {
                q: {sid: tuple(sorted(ps)) for sid, ps in per_sid.items()}
                for q, per_sid in collect.items()
            }
            self._predecessors = index
        return index

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.states)

    def goto(self, state_id: int, symbol: Symbol) -> Optional[int]:
        """Successor of *state_id* on *symbol*, or None."""
        sid = self.ids.sid_or_none(symbol)
        if sid is None:
            return None
        target = self.states[state_id].targets[sid]
        return target if target >= 0 else None

    def goto_sequence(self, state_id: int, symbols: Sequence[Symbol]) -> Optional[int]:
        """Walk the goto function along *symbols*; None if the path dies.

        Symbols are converted to dense IDs once up front; the walk itself
        reads flat target rows without hashing anything.
        """
        try:
            sids = self.ids.sids(symbols)
        except KeyError:
            return None
        return self.goto_sequence_sids(state_id, sids)

    def goto_sequence_sids(self, state_id: int, sids: Iterable[int]) -> Optional[int]:
        """:meth:`goto_sequence` on dense symbol IDs (the integer core)."""
        states = self.states
        current = state_id
        for sid in sids:
            current = states[current].targets[sid]
            if current < 0:
                return None
        return current

    def predecessors(self, state_id: int, symbol: Symbol) -> Tuple[int, ...]:
        """All states p with ``goto(p, symbol) == state_id``."""
        sid = self.ids.sid_or_none(symbol)
        if sid is None:
            return ()
        return self._predecessor_index().get(state_id, {}).get(sid, ())

    def predecessors_along(
        self, state_id: int, symbols: Sequence[Symbol]
    ) -> Tuple[int, ...]:
        """All states p with ``p --symbols--> state_id`` (walk backwards).

        This implements the ``p --omega--> q`` spelling lookup used by the
        `includes` and `lookback` relations without any forward search.
        The spelling is converted to dense IDs once; the backward walk
        then touches only the int-keyed predecessor index.
        """
        try:
            sids = self.ids.sids(symbols)
        except KeyError:
            # A symbol outside this grammar's layout has no transitions,
            # so no path can spell the sequence.
            return ()
        index = self._predecessor_index()
        empty: Dict[int, Tuple[int, ...]] = {}
        frontier = [state_id]
        for sid in reversed(sids):
            next_frontier: List[int] = []
            for q in frontier:
                next_frontier.extend(index.get(q, empty).get(sid, ()))
            if not next_frontier:
                return ()
            frontier = next_frontier
        return tuple(sorted(set(frontier)))

    @property
    def nonterminal_transitions(self) -> List[Tuple[int, Symbol]]:
        """All (state, nonterminal) transition pairs — the node set of the
        DeRemer–Pennello relations (Symbol-level boundary view)."""
        num_terminals = self.ids.num_terminals
        symbol_of = self.ids.by_sid
        pairs: List[Tuple[int, Symbol]] = []
        for state in self.states:
            for sid in state.out_sids:
                if sid >= num_terminals:
                    pairs.append((state.state_id, symbol_of[sid]))
        return pairs

    @property
    def nonterminal_transition_ids(self) -> "array":
        """The same transition set as packed ints
        ``state_id * num_nonterminals + nt_id``, in the same deterministic
        order — the node encoding the relations and Digraph passes use."""
        num_terminals = self.ids.num_terminals
        num_nonterminals = self.ids.num_nonterminals
        packed: "array" = array("q")
        for state in self.states:
            base = state.state_id * num_nonterminals
            for sid in state.out_sids:
                if sid >= num_terminals:
                    packed.append(base + sid - num_terminals)
        return packed

    @property
    def accept_state(self) -> int:
        """The state reached after shifting ``S $end`` from the start."""
        p0 = self.grammar.productions[0]
        state = self.goto_sequence_sids(0, p0.rhs_sids)
        if state is None:  # pragma: no cover - impossible on augmented grammars
            raise GrammarValidationError("automaton lacks an accept state")
        return state

    def format_state(self, state_id: int, kernel_only: bool = False) -> str:
        """Multi-line human-readable dump of one state."""
        state = self.states[state_id]
        items = sorted(state.kernel) if kernel_only else list(state.closure)
        lines = [f"state {state_id}"]
        lines.extend(f"  {format_item(self.grammar, item)}" for item in items)
        for symbol, target in sorted(
            state.transitions.items(), key=lambda kv: kv[0].index
        ):
            lines.append(f"  {symbol.name} => state {target}")
        return "\n".join(lines)

    def stats(self) -> Dict[str, int]:
        """Size statistics for the benchmark harness."""
        productions_per_nt = [
            len(self.grammar.productions_for_ntid(nt_id))
            for nt_id in range(self.ids.num_nonterminals)
        ]
        return {
            "states": len(self.states),
            "kernel_items": sum(len(s.kernel_codes) for s in self.states),
            "closure_items": sum(
                len(s.kernel_codes) + sum(productions_per_nt[nt] for nt in s.derived_nts)
                for s in self.states
            ),
            "transitions": sum(len(s.out_sids) for s in self.states),
            "nonterminal_transitions": len(self.nonterminal_transitions),
            "reductions": sum(len(s.reductions) for s in self.states),
        }
