"""Parse-table construction for the four LR variants.

All four builders share one row writer, which fills the table's flat
``action_codes``/``goto_codes`` arrays straight from each state's
transitions and reduce look-ahead bitmasks (no per-cell action objects;
see :class:`_RowWriter`).  They differ only in *which lookaheads gate each
reduction*:

- **LR(0)**: every terminal (reduce regardless of lookahead);
- **SLR(1)**: FOLLOW(lhs) — :class:`repro.baselines.slr.SlrAnalysis`;
- **LALR(1)**: the DeRemer–Pennello LA sets (default) or any baseline's
  equivalent table;
- **CLR(1)**: per-LR(1)-state item lookaheads (the table lives on the
  canonical LR(1) automaton, so it is typically much larger).

The accept action is installed on ``$end`` in any state containing the
item ``S' -> S . $end``; the reduction by production 0 therefore never
fires and carries no lookaheads anywhere in the library.
"""

from __future__ import annotations

import functools
from array import array
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..automaton.lr0 import LR0Automaton
from ..automaton.lr1 import LR1Automaton
from ..baselines.slr import SlrAnalysis
from ..core import instrument
from ..core.lalr import LalrAnalysis
from ..core.relations import ReductionSite
from ..grammar.grammar import Grammar
from ..grammar.symbols import Symbol
from .conflicts import Conflict, resolve_shift_reduce
from .table import (
    ACCEPT,
    ACTION_ACCEPT,
    ACTION_ERROR,
    ACTION_REDUCE,
    ACTION_SHIFT,
    ParseTable,
    Reduce,
    Shift,
    encode_action,
)


def build_lr0_table(
    grammar: Grammar, automaton: "LR0Automaton | None" = None, budget=None
) -> ParseTable:
    """The LR(0) table: final items reduce on *every* terminal."""
    with instrument.span("table.build.lr0"):
        if automaton is None:
            automaton = LR0Automaton(grammar, budget=budget)
        all_mask = (1 << automaton.ids.num_terminals) - 1

        def lookahead_mask(site: ReductionSite) -> int:
            return all_mask

        return _fill_lr0_based(automaton, "lr0", lookahead_mask, budget)


def build_slr_table(
    grammar: Grammar, automaton: "LR0Automaton | None" = None, budget=None
) -> ParseTable:
    """The SLR(1) table: reduce on FOLLOW of the production's lhs."""
    with instrument.span("table.build.slr1"):
        if automaton is None:
            automaton = LR0Automaton(grammar, budget=budget)
        analysis = SlrAnalysis(grammar, automaton)
        mask_of = _symbol_set_masker(automaton.ids)

        def lookahead_mask(site: ReductionSite) -> int:
            return mask_of(analysis.lookahead(*site))

        return _fill_lr0_based(automaton, "slr1", lookahead_mask, budget)


def build_lalr_table(
    grammar: Grammar,
    automaton: "LR0Automaton | None" = None,
    lookahead_table: "Dict[ReductionSite, FrozenSet[Symbol]] | None" = None,
    budget=None,
    la_masks: "Dict[ReductionSite, int] | None" = None,
) -> ParseTable:
    """The LALR(1) table.

    By default lookaheads come straight from the DeRemer–Pennello
    analysis's LA bitmasks (no Symbol round-trip); pass *lookahead_table*
    (e.g. from a baseline) to build from other sources — the classifier
    and the equivalence tests use this hook — or *la_masks* to reuse an
    already-computed analysis's masks without paying for a second one
    (the session pipeline's path).  A *budget* governs the whole build
    (automaton, analysis and fill share one deadline).
    """
    with instrument.span("table.build.lalr1"):
        if automaton is None:
            automaton = LR0Automaton(grammar, budget=budget)
        if lookahead_table is None:
            if la_masks is None:
                la_masks = LalrAnalysis(grammar, automaton, budget=budget).la_masks
            site_masks = la_masks

            def lookahead_mask(site: ReductionSite) -> int:
                return site_masks.get(site, 0)

        else:
            mask_of = _symbol_set_masker(automaton.ids)

            def lookahead_mask(site: ReductionSite) -> int:
                return mask_of(lookahead_table.get(site, frozenset()))

        return _fill_lr0_based(automaton, "lalr1", lookahead_mask, budget)


def _symbol_set_masker(ids) -> "callable":
    """Symbol-set -> terminal-ID bitmask converter (memoised per set).

    Follow/LA sets and LR(1) item look-ahead sets are shared objects, so
    the memoisation makes the conversion one pass per distinct set.
    """
    terminal_id = ids.terminal_id
    cache: Dict[int, int] = {}

    def mask_of(terminals: FrozenSet[Symbol]) -> int:
        key = id(terminals)
        mask = cache.get(key)
        if mask is None:
            mask = 0
            for terminal in terminals:
                mask |= 1 << terminal_id(terminal)
            cache[key] = mask
        return mask

    return mask_of


def _lr0_row(state, lookahead_mask_for: "callable") -> "tuple[int, list, list]":
    """One LR(0) state as the row writer's ``(state_id, transitions,
    reductions)``."""
    targets = state.targets
    state_id = state.state_id
    return (
        state_id,
        [(sid, targets[sid]) for sid in state.out_sids],
        [
            (item.production, lookahead_mask_for((state_id, item.production)))
            for item in state.reductions
        ],
    )


def _fill_lr0_based(
    automaton: LR0Automaton,
    method: str,
    lookahead_mask_for: "callable",
    budget=None,
) -> ParseTable:
    """Fill ACTION/GOTO from the automaton's integer core: each state's
    ID transition row and its reduce look-ahead bitmasks."""
    rows = (_lr0_row(state, lookahead_mask_for) for state in automaton.states)
    return _fill(automaton.grammar, method, len(automaton.states), rows, budget)


def _fill(grammar: Grammar, method: str, n_states: int, rows, budget) -> ParseTable:
    """A table of *n_states* rows, each ``(state_id, transitions,
    reductions)`` of *rows* written by one :class:`_RowWriter`."""
    writer = _RowWriter(grammar, n_states)
    if budget is not None:
        budget.enter_phase("table.fill")
    with instrument.span("table.fill"):
        for state_id, transitions, reductions in rows:
            if budget is not None:
                budget.tick()
            writer.write(state_id, transitions, reductions)
    if budget is not None:
        budget.publish()
    action_codes = writer.action_codes
    if instrument.enabled():
        instrument.count("table.states", n_states)
        instrument.count(
            "table.action_cells", len(action_codes) - action_codes.count(ACTION_ERROR)
        )
        instrument.count("table.conflicts", len(writer.conflicts))
    return ParseTable(grammar, method, action_codes, writer.goto_codes, writer.conflicts)


class _RowWriter:
    """Writes ACTION/GOTO codes one state at a time into two flat arrays.

    The one fill engine of every construction (LR(0)-based, CLR(1) and
    the incremental refill).  A state arrives as its transitions —
    ``(sid, successor)`` pairs — and its reductions — ``(production,
    look-ahead terminal mask)`` pairs.  Shift/accept/goto codes go
    straight into the state's slice; each reduce visits its mask bits
    from low to high.  Only a cell where a reduce meets another action
    gets :class:`Action` objects, for :mod:`repro.tables.conflicts` to
    resolve and for the conflict log, which therefore comes out in
    (state, reduction, terminal id) order.
    """

    def __init__(self, grammar: Grammar, n_states: int):
        ids = grammar.ids
        self.grammar = grammar
        self.width = ids.num_terminals
        self.n_nts = ids.num_nonterminals
        self.eof_sid = ids.terminal_id(grammar.eof)
        self.action_codes = array("i", [ACTION_ERROR]) * (n_states * self.width)
        self.goto_codes = array("i", [-1]) * (n_states * self.n_nts)
        self.conflicts: List[Conflict] = []

    def write(self, state_id: int, transitions, reductions) -> None:
        width = self.width
        codes = self.action_codes
        base = state_id * width
        goto_codes = self.goto_codes
        goto_base = state_id * self.n_nts - width
        eof_sid = self.eof_sid
        for sid, successor in transitions:
            if sid >= width:
                goto_codes[goto_base + sid] = successor
            elif sid == eof_sid:
                # goto on $end exists only from the item S' -> S . $end.
                codes[base + sid] = ACTION_ACCEPT
            else:
                codes[base + sid] = (successor << 2) | ACTION_SHIFT
        for production, mask in reductions:
            if production == 0:
                continue
            code = (production << 2) | ACTION_REDUCE
            while mask:
                low_bit = mask & -mask
                mask ^= low_bit
                cell = base + low_bit.bit_length() - 1
                existing = codes[cell]
                if existing == ACTION_ERROR:
                    codes[cell] = code
                elif existing != code:
                    codes[cell] = self._collide(state_id, cell - base, existing, code)

    def _collide(self, state_id: int, terminal_id: int, existing_code: int, code: int) -> int:
        """The code a cell keeps when reduce *code* meets *existing_code*;
        the collision is logged as a :class:`Conflict`."""
        grammar = self.grammar
        terminal = grammar.ids.terminals[terminal_id]
        new_action = Reduce(code >> 2)
        tag = existing_code & 3
        if tag == ACTION_SHIFT:
            existing = Shift(existing_code >> 2)
            winner, resolved = resolve_shift_reduce(grammar, terminal, existing, new_action)
            kind = "shift/reduce"
        elif tag == ACTION_REDUCE:
            # yacc rule: the earlier production wins; never precedence-resolved.
            existing = Reduce(existing_code >> 2)
            winner = existing if existing.production <= new_action.production else new_action
            kind, resolved = "reduce/reduce", False
        else:
            # Only cyclic grammars (S =>+ S) can pit accept against a reduce;
            # keep accept and report it as an unresolved shift/reduce-style
            # conflict so the classifier rejects such grammars.
            existing = ACCEPT
            winner, kind, resolved = existing, "shift/reduce", False
        self.conflicts.append(
            Conflict(state_id, terminal, kind, [existing, new_action], winner, resolved)
        )
        return encode_action(winner)


def refill_lalr_table(
    old_table: ParseTable,
    automaton: LR0Automaton,
    la_masks: Dict[ReductionSite, int],
    old_la_masks: Dict[ReductionSite, int],
    dirty: bytearray,
) -> ParseTable:
    """Rebuild only the table rows an rhs edit can have changed.

    A state's ACTION/GOTO row is a function of its transition row, its
    reduction items' LA masks, and the grammar's precedence
    declarations.  After a splice, a state that is not *dirty* shares
    its transition row object with the old automaton, and rhs-delta
    eligibility keeps grammar-level precedence fixed; so its row can be
    reused verbatim iff none of its reduction sites' LA masks changed.
    (A changed production's ``%prec`` cannot affect a clean state either:
    any state reducing by that production contains one of its items and
    is dirty by definition.)  Everything is assembled in state order, so
    the code arrays and the conflict list come out exactly as a
    from-scratch fill's: clean rows are copied as slices of the old code
    arrays, refilled rows go through the same :class:`_RowWriter`.
    """
    grammar = automaton.grammar
    states = automaton.states
    n_states = len(states)
    refill = bytearray(dirty)
    # Sites that appear or disappear belong to recomputed (dirty, hence
    # already marked) states, so scanning the old site list is enough.
    la_get = la_masks.get
    for site, old_mask in old_la_masks.items():
        if la_get(site) != old_mask:
            refill[site[0]] = 1

    def lookahead_mask(site: ReductionSite) -> int:
        return la_get(site, 0)

    writer = _RowWriter(grammar, n_states)
    width, n_nts = writer.width, writer.n_nts
    action_codes, goto_codes, conflicts = (
        writer.action_codes, writer.goto_codes, writer.conflicts
    )
    reused = 0
    # ``old_table.conflicts`` is in state order (so is our output), so a
    # single pointer walks it: clean runs copy their slice of old
    # conflicts, a refilled state skips its old entries and regenerates.
    old_conflicts = old_table.conflicts
    n_old_conflicts = len(old_conflicts)
    conflict_ptr = 0
    old_action_codes = old_table.action_codes
    old_goto_codes = old_table.goto_codes
    with instrument.span("table.refill"):
        state_id = 0
        while state_id < n_states:
            boundary = refill.find(1, state_id)
            if boundary < 0:
                boundary = n_states
            if boundary > state_id:
                # Clean run [state_id, boundary): code slices copied verbatim.
                action_slice = slice(state_id * width, boundary * width)
                action_codes[action_slice] = old_action_codes[action_slice]
                goto_slice = slice(state_id * n_nts, boundary * n_nts)
                goto_codes[goto_slice] = old_goto_codes[goto_slice]
                while (
                    conflict_ptr < n_old_conflicts
                    and old_conflicts[conflict_ptr].state < boundary
                ):
                    conflicts.append(old_conflicts[conflict_ptr])
                    conflict_ptr += 1
                reused += boundary - state_id
                state_id = boundary
                if state_id >= n_states:
                    break
            while (
                conflict_ptr < n_old_conflicts
                and old_conflicts[conflict_ptr].state <= state_id
            ):
                conflict_ptr += 1
            writer.write(*_lr0_row(states[state_id], lookahead_mask))
            state_id += 1
    if instrument.enabled():
        instrument.count("phase.table.rows_reused", reused)
        instrument.count("phase.table.rows_refilled", n_states - reused)
    return ParseTable(grammar, "lalr1", action_codes, goto_codes, conflicts)


def build_clr_table(
    grammar: Grammar, lr1: "LR1Automaton | None" = None, budget=None
) -> ParseTable:
    """The canonical LR(1) table (Knuth), on the LR(1) automaton's states."""
    with instrument.span("table.build.clr1"):
        if lr1 is None:
            lr1 = LR1Automaton(
                grammar.augmented() if not grammar.is_augmented else grammar,
                budget=budget,
            )
        grammar = lr1.grammar
        sid = grammar.ids.sid
        mask_of = _symbol_set_masker(grammar.ids)
        rows = (
            (
                state.state_id,
                [(sid(symbol), successor) for symbol, successor in state.transitions.items()],
                [
                    (production, mask_of(lookaheads))
                    for production, lookaheads in lr1.reductions(state.state_id)
                ],
            )
            for state in lr1.states
        )
        return _fill(grammar, "clr1", len(lr1.states), rows, budget)


#: Every table construction, by the method name the CLI and the service
#: accept.
BUILDERS = {
    "lr0": build_lr0_table,
    "slr1": build_slr_table,
    "lalr1": build_lalr_table,
    "clr1": build_clr_table,
}


def build_table(
    grammar: Grammar, method: str, cache=None, budget=None, fingerprint: Optional[str] = None
) -> "Tuple[Grammar, ParseTable]":
    """``(augmented grammar, table)`` for *method*: from the TableCache
    *cache* when it holds the table (*fingerprint* as for its ``load``),
    else built under *budget* and stored there."""
    builder = BUILDERS[method]
    if budget is not None:
        builder = functools.partial(builder, budget=budget)
    augmented = grammar.augmented()
    if cache is None:
        return augmented, builder(augmented)
    return augmented, cache.load_or_build(augmented, method, builder, fingerprint)
