"""Parse-table construction for the four LR variants.

All four builders share one cell-filling engine and differ only in *which
lookaheads gate each reduction*:

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

from array import array
from typing import Dict, FrozenSet, List

from ..automaton.lr0 import LR0Automaton
from ..automaton.lr1 import LR1Automaton
from ..baselines.slr import SlrAnalysis
from ..core import instrument
from ..core.lalr import LalrAnalysis
from ..core.relations import ReductionSite
from ..grammar.grammar import Grammar
from ..grammar.symbols import Symbol
from .conflicts import Conflict, resolve_shift_reduce
from .table import ACCEPT, Action, ParseTable, Reduce, Shift, encode_rows


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
        mask_of = _symbol_set_masker(automaton)

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
            mask_of = _symbol_set_masker(automaton)

            def lookahead_mask(site: ReductionSite) -> int:
                return mask_of(lookahead_table.get(site, frozenset()))

        return _fill_lr0_based(automaton, "lalr1", lookahead_mask, budget)


def _symbol_set_masker(automaton: LR0Automaton) -> "callable":
    """Symbol-set -> terminal-ID bitmask converter (memoised per set).

    Follow/LA sets are shared objects (one per lhs or site), so the
    memoisation makes the conversion one pass per distinct set.
    """
    terminal_id = automaton.ids.terminal_id
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


def _fill_lr0_based(
    automaton: LR0Automaton,
    method: str,
    lookahead_mask_for: "callable",
    budget=None,
) -> ParseTable:
    """Fill ACTION/GOTO walking the automaton's integer core.

    Shift/goto cells come from each state's ID row; reduce lookaheads
    arrive as terminal-ID bitmasks and are widened to Symbols only at
    the cell boundary (where conflict resolution reasons about
    precedence declarations, which are Symbol-keyed).
    """
    grammar = automaton.grammar
    ids = automaton.ids
    num_terminals = ids.num_terminals
    symbol_of = ids.by_sid
    eof_sid = ids.terminal_id(grammar.eof)
    eof = grammar.eof
    actions: List[Dict[Symbol, Action]] = []
    gotos: List[Dict[Symbol, int]] = []
    conflicts: List[Conflict] = []

    if budget is not None:
        budget.enter_phase("table.fill")
    with instrument.span("table.fill"):
        for state in automaton.states:
            if budget is not None:
                budget.tick()
            action_row, goto_row = _fill_state_row(
                grammar,
                state,
                lookahead_mask_for,
                conflicts,
                symbol_of,
                num_terminals,
                eof_sid,
                eof,
            )
            actions.append(action_row)
            gotos.append(goto_row)
    if budget is not None:
        budget.publish()
    if instrument.enabled():
        instrument.count("table.states", len(actions))
        instrument.count("table.action_cells", sum(len(row) for row in actions))
        instrument.count("table.conflicts", len(conflicts))
    return ParseTable(grammar, method, actions, gotos, conflicts)


def _fill_state_row(
    grammar: Grammar,
    state,
    lookahead_mask_for: "callable",
    conflicts: List[Conflict],
    symbol_of,
    num_terminals: int,
    eof_sid: int,
    eof: Symbol,
) -> "tuple[Dict[Symbol, Action], Dict[Symbol, int]]":
    """One state's ACTION/GOTO dict rows (the fill engine's inner body).

    Shared between the from-scratch fill and the incremental refill so a
    refilled row is computed by the exact same code path.  Conflicts
    discovered in this state are appended to *conflicts* in discovery
    order.
    """
    action_row: Dict[Symbol, Action] = {}
    goto_row: Dict[Symbol, int] = {}
    targets = state.targets
    for sid in state.out_sids:
        successor = targets[sid]
        if sid >= num_terminals:
            goto_row[symbol_of[sid]] = successor
        elif sid == eof_sid:
            # goto on $end exists only from the item S' -> S . $end.
            action_row[eof] = ACCEPT
        else:
            action_row[symbol_of[sid]] = Shift(successor)
    for item in state.reductions:
        if item.production == 0:
            continue
        reduce_action = Reduce(item.production)
        mask = lookahead_mask_for((state.state_id, item.production))
        while mask:
            low_bit = mask & -mask
            mask ^= low_bit
            _place(
                grammar,
                actions_row=action_row,
                state_id=state.state_id,
                terminal=symbol_of[low_bit.bit_length() - 1],
                new_action=reduce_action,
                conflicts=conflicts,
            )
    return action_row, goto_row


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
    from-scratch fill's; clean rows are copied as slices of the old code
    arrays and nothing is decoded.
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

    ids = grammar.ids
    symbol_of = ids.by_sid
    num_terminals = ids.num_terminals
    n_nts = ids.num_nonterminals
    eof = grammar.eof
    eof_sid = ids.terminal_id(eof)

    def lookahead_mask(site: ReductionSite) -> int:
        return la_masks.get(site, 0)

    action_codes = array("i")
    goto_codes = array("i")
    conflicts: List[Conflict] = []
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
                action_codes.extend(
                    old_action_codes[state_id * num_terminals:boundary * num_terminals]
                )
                goto_codes.extend(old_goto_codes[state_id * n_nts:boundary * n_nts])
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
            action_row, goto_row = _fill_state_row(
                grammar,
                states[state_id],
                lookahead_mask,
                conflicts,
                symbol_of,
                num_terminals,
                eof_sid,
                eof,
            )
            row_actions, row_gotos = encode_rows(grammar, [action_row], [goto_row])
            action_codes.extend(row_actions)
            goto_codes.extend(row_gotos)
            state_id += 1
    if instrument.enabled():
        instrument.count("phase.table.rows_reused", reused)
        instrument.count("phase.table.rows_refilled", n_states - reused)
    return ParseTable.from_codes(grammar, "lalr1", action_codes, goto_codes, conflicts)


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
        eof = grammar.eof
        actions: List[Dict[Symbol, Action]] = []
        gotos: List[Dict[Symbol, int]] = []
        conflicts: List[Conflict] = []

        if budget is not None:
            budget.enter_phase("table.fill")
        with instrument.span("table.fill"):
            for state in lr1.states:
                if budget is not None:
                    budget.tick()
                action_row: Dict[Symbol, Action] = {}
                goto_row: Dict[Symbol, int] = {}
                for symbol, successor in state.transitions.items():
                    if symbol.is_nonterminal:
                        goto_row[symbol] = successor
                    elif symbol is eof:
                        action_row[eof] = ACCEPT
                    else:
                        action_row[symbol] = Shift(successor)
                for production_index, lookahead_set in lr1.reductions(state.state_id):
                    if production_index == 0:
                        continue
                    reduce_action = Reduce(production_index)
                    for terminal in lookahead_set:
                        _place(
                            grammar,
                            actions_row=action_row,
                            state_id=state.state_id,
                            terminal=terminal,
                            new_action=reduce_action,
                            conflicts=conflicts,
                        )
                actions.append(action_row)
                gotos.append(goto_row)
        if budget is not None:
            budget.publish()
        if instrument.enabled():
            instrument.count("table.states", len(actions))
            instrument.count("table.action_cells", sum(len(row) for row in actions))
            instrument.count("table.conflicts", len(conflicts))
        return ParseTable(grammar, "clr1", actions, gotos, conflicts)


def _place(
    grammar: Grammar,
    actions_row: Dict[Symbol, Action],
    state_id: int,
    terminal: Symbol,
    new_action: Action,
    conflicts: List[Conflict],
) -> None:
    """Install *new_action* into a cell, resolving/recording conflicts."""
    existing = actions_row.get(terminal)
    if existing is None:
        actions_row[terminal] = new_action
        return
    if existing == new_action:
        return
    if existing.kind == "shift" and new_action.kind == "reduce":
        winner, resolved = resolve_shift_reduce(grammar, terminal, existing, new_action)
        conflicts.append(
            Conflict(state_id, terminal, "shift/reduce", [existing, new_action], winner, resolved)
        )
        if winner is None:
            del actions_row[terminal]
        else:
            actions_row[terminal] = winner
        return
    if existing.kind == "reduce" and new_action.kind == "reduce":
        # yacc rule: the earlier production wins; never precedence-resolved.
        winner = existing if existing.production <= new_action.production else new_action
        conflicts.append(
            Conflict(state_id, terminal, "reduce/reduce", [existing, new_action], winner, False)
        )
        actions_row[terminal] = winner
        return
    # reduce placed first, then shift discovered — normalise the ordering.
    if existing.kind == "reduce" and new_action.kind == "shift":
        winner, resolved = resolve_shift_reduce(grammar, terminal, new_action, existing)
        conflicts.append(
            Conflict(state_id, terminal, "shift/reduce", [new_action, existing], winner, resolved)
        )
        if winner is None:
            del actions_row[terminal]
        else:
            actions_row[terminal] = winner
        return
    if existing.kind == "accept" or new_action.kind == "accept":
        # Only cyclic grammars (S =>+ S) can pit accept against a reduce;
        # keep accept and report it as an unresolved shift/reduce-style
        # conflict so the classifier rejects such grammars.
        winner = existing if existing.kind == "accept" else new_action
        conflicts.append(
            Conflict(state_id, terminal, "shift/reduce", [existing, new_action], winner, False)
        )
        actions_row[terminal] = winner
        return
    raise AssertionError(
        f"impossible action pair in state {state_id}: {existing!r} vs {new_action!r}"
    )
