"""Delta-scoped LR(0) recomputation — splice dirty states in place.

The pivotal observation: kernels are tuples of packed
``(production_index, dot)`` codes, which mention no right-hand-side
*symbols* at all.  An rhs-only edit therefore leaves every kernel code
literally unchanged; what changes is the per-state closure work — which
nonterminals get derived, which symbols label the outgoing buckets —
and only in states that contain an item of an edited production.

:func:`splice_lr0` exploits that: it rebuilds exactly the **dirty**
states (kernel mentions a changed production, or the closure derives a
dirty nonterminal) against the edited grammar's closure tables, keeps
every clean :class:`LR0State` object as-is, and preserves the original
state numbering.  Correctness rests on a replay argument: the from-
scratch builder is a deterministic LIFO traversal that pushes a state
the first time its kernel is interned, so if

- every clean state's content is unchanged (its kernel productions and
  derived nonterminals are untouched by the edit — true by the dirty
  definition), and
- every dirty state's *ordered successor-kernel sequence* after the
  edit equals the old one (verified here, state by state),

then the from-scratch traversal of the edited grammar makes the same
intern/push decisions in the same order and yields the identical state
set with identical numbering — so splicing recomputed rows into the old
state list reproduces the from-scratch automaton exactly.  Any state
where the verification fails (the edit re-shaped the automaton: states
appear, vanish, or renumber) raises :class:`IncrementalFallback` and the
caller rebuilds from scratch.

A second guard keeps the *relations* node space valid: each dirty
state's subsequence of outgoing nonterminal IDs must also be unchanged,
because the DeRemer–Pennello node set (packed
``state * num_nonterminals + nt_id`` in automaton order) must survive
for relation rows and digraph results to be patchable by node index.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Tuple

from ..core import instrument
from ..grammar.grammar import Grammar
from ..grammar.symbols import Symbol
from .items import Item
from .lr0 import LR0Automaton, LR0State, closure_row

__all__ = ["IncrementalFallback", "splice_lr0", "dirty_states"]


class IncrementalFallback(Exception):
    """The delta cannot be applied incrementally; rebuild from scratch.

    Raised by the splice layers when a verification guard fails (the
    edit re-shaped the automaton, changed nullability, or widened the
    item packing).  Always recoverable: the session catches it, counts
    ``phase.fallback`` and rebuilds — incremental mode never produces a
    wrong answer, only occasionally a slower one.
    """


def _occurrence_index(
    automaton: LR0Automaton,
) -> "Tuple[List[List[int]], List[List[int]]]":
    """``(prod -> states, nt -> states)`` — which states mention each
    production in their kernel, and which derive each nonterminal.

    Cached on the automaton and *patched* across splices (see
    :func:`splice_lr0`): kernels never change under an rhs splice, so
    the production map is shared outright; only recomputed states'
    derived sets can differ.  With the index, :func:`dirty_states` is
    O(answer) instead of a full item scan per edit.
    """
    cached = getattr(automaton, "_occurrence_index", None)
    if cached is not None:
        return cached
    shift = automaton._dot_shift
    prod_states: List[List[int]] = [[] for _ in automaton.grammar.productions]
    nt_states: List[List[int]] = [
        [] for _ in range(automaton.ids.num_nonterminals)
    ]
    for state in automaton.states:
        state_id = state.state_id
        seen = set()
        for code in state.kernel_codes:
            production = code >> shift
            if production not in seen:
                seen.add(production)
                prod_states[production].append(state_id)
        for nt_id in state.derived_nts:
            nt_states[nt_id].append(state_id)
    index = (prod_states, nt_states)
    automaton._occurrence_index = index
    return index


def dirty_states(
    automaton: LR0Automaton,
    changed_productions: Iterable[int],
    dirty_nonterminals: Iterable[Symbol],
) -> bytearray:
    """Flags[state_id] = 1 iff the state contains an item of a changed
    production — in its kernel or via a derived dirty nonterminal."""
    prod_states, nt_states = _occurrence_index(automaton)
    ids = automaton.ids
    flags = bytearray(len(automaton.states))
    for index in changed_productions:
        for state_id in prod_states[index]:
            flags[state_id] = 1
    for symbol in dirty_nonterminals:
        for state_id in nt_states[ids.nonterminal_id(symbol)]:
            flags[state_id] = 1
    return flags


def splice_lr0(
    old: LR0Automaton,
    grammar: Grammar,
    changed_productions: Iterable[int],
    dirty_nonterminals: Iterable[Symbol],
) -> "Tuple[LR0Automaton, bytearray, List[int]]":
    """The edited grammar's LR(0) automaton, spliced from *old*.

    Args:
        old: The automaton of the pre-edit grammar.
        grammar: The edited grammar — augmented, same symbol-ID layout
            (the session's ``rhs`` delta eligibility guarantees both).
        changed_productions / dirty_nonterminals: The ``rhs`` delta.

    Returns:
        ``(automaton, dirty, dirty_ids)`` — the new automaton (clean
        states shared with *old*, identical numbering), the per-state
        dirty flags, and the dirty ids in ascending order.

    Raises:
        IncrementalFallback: The edit re-shaped the automaton (or
            widened the item packing) and cannot be spliced.
    """
    changed_productions = tuple(changed_productions)
    dirty_nonterminals = tuple(dirty_nonterminals)
    with instrument.span("lr0.splice"):
        _carry_closure_tables(old, grammar, changed_productions, dirty_nonterminals)
        shell = object.__new__(LR0Automaton)
        shell.grammar = grammar
        shell.ids = grammar.ids
        shell.states = []
        shell._predecessors = None
        shell._budget = None
        shell._prepare_closure_tables()
        if shell._dot_shift != old._dot_shift:
            raise IncrementalFallback(
                "item packing width changed (max rhs length crossed a "
                "power of two)"
            )

        dirty = dirty_states(old, changed_productions, dirty_nonterminals)
        dirty_ids = [i for i, flag in enumerate(dirty) if flag]
        states: List[LR0State] = list(old.states)
        old_states = old.states
        num_terminals = shell.ids.num_terminals
        for state_id in dirty_ids:
            old_state = old_states[state_id]
            derived, reductions, buckets = _close_kernel(
                shell, old_state.kernel_codes
            )
            old_successor_kernels = [
                old_states[old_state.targets[sid]].kernel_codes
                for sid in old_state.out_sids
            ]
            if [kernel for _, kernel in buckets] != old_successor_kernels:
                raise IncrementalFallback(
                    f"state {state_id}: successor kernels changed "
                    f"(the edit re-shapes the automaton)"
                )
            old_nt_sids = [s for s in old_state.out_sids if s >= num_terminals]
            new_nt_sids = [s for s, _ in buckets if s >= num_terminals]
            if old_nt_sids != new_nt_sids:
                raise IncrementalFallback(
                    f"state {state_id}: nonterminal transitions changed "
                    f"(the relations node space would shift)"
                )
            fresh = LR0State(
                state_id, old_state.kernel_codes, derived, reductions, shell
            )
            targets, out_sids = fresh.targets, fresh.out_sids
            for position, (sid, _) in enumerate(buckets):
                targets[sid] = old_state.targets[old_state.out_sids[position]]
                out_sids.append(sid)
            states[state_id] = fresh
        shell.states = states
        # Kernels are identical state-for-state (the guards above), so
        # the kernel interning index is shared, not copied — neither
        # automaton mutates it after construction.
        shell._kernel_index = old._kernel_index
        # Patch the occurrence index across (dirty_states above ensured
        # it exists on *old*): kernels pin the production map; only the
        # recomputed states' derived sets can differ, and list order is
        # irrelevant to the flag queries the index serves.
        prod_states, nt_states = old._occurrence_index
        nt_states = list(nt_states)
        touched: dict = {}
        for state_id in dirty_ids:
            old_derived = set(old_states[state_id].derived_nts)
            new_derived = set(states[state_id].derived_nts)
            for nt_id in old_derived.symmetric_difference(new_derived):
                bucket = touched.get(nt_id)
                if bucket is None:
                    bucket = touched[nt_id] = list(nt_states[nt_id])
                    nt_states[nt_id] = bucket
                if nt_id in old_derived:
                    bucket.remove(state_id)
                else:
                    bucket.append(state_id)
        shell._occurrence_index = (prod_states, nt_states)
    if instrument.enabled():
        instrument.count("phase.lr0.states_recomputed", len(dirty_ids))
        instrument.count("phase.lr0.states_reused", len(states) - len(dirty_ids))
    return shell, dirty, dirty_ids


def _carry_closure_tables(
    old: LR0Automaton,
    grammar: Grammar,
    changed_productions: Tuple[int, ...],
    dirty_nonterminals: Tuple[Symbol, ...],
) -> None:
    """Seed *grammar*'s closure tables from *old*'s grammar.

    A closure-table row depends only on its nonterminal's productions
    and the dot width, so under an rhs edit that keeps the width only
    the dirty nonterminals' rows and the changed productions'
    ``_prod_rhs_sids`` entries differ; every other row is shared.  When
    the width changes (or there is nothing to carry) nothing is seeded:
    :meth:`LR0Automaton._prepare_closure_tables` builds the tables in
    full and the caller's width guard falls back.
    """
    if "_closure_tables" in grammar.__dict__:
        return
    carried = old.grammar.__dict__.get("_closure_tables")
    if carried is None:
        return
    shift, mask, rhs_sids_of, first_nts, epsilon_items, shift_entries = carried
    productions = grammar.productions
    rhs_sids_of = list(rhs_sids_of)
    for index in changed_productions:
        rhs_sids_of[index] = productions[index].rhs_sids
    if max(1, max(map(len, rhs_sids_of)).bit_length()) != shift:
        return
    first_nts, epsilon_items, shift_entries = (
        list(first_nts), list(epsilon_items), list(shift_entries)
    )
    nonterminal_id = grammar.ids.nonterminal_id
    for symbol in dirty_nonterminals:
        nt_id = nonterminal_id(symbol)
        first_nts[nt_id], epsilon_items[nt_id], shift_entries[nt_id] = (
            closure_row(grammar, nt_id, shift)
        )
    grammar._closure_tables = (
        shift, mask, rhs_sids_of, first_nts, epsilon_items, shift_entries
    )


def _close_kernel(
    shell: LR0Automaton, kernel_codes: Tuple[int, ...]
) -> "Tuple[array, Tuple[Item, ...], List[Tuple[int, Tuple[int, ...]]]]":
    """Closure + successor buckets for one kernel under *shell*'s tables.

    Mirrors exactly what ``LR0Automaton._intern`` plus the ``_build``
    inner loop compute for a state — same expansion order, same bucket
    order (declaration-sorted sids), same sorted codes per bucket — so
    the returned bucket sequence is directly comparable with a from-
    scratch state's successor sequence.
    """
    shift, mask = shell._dot_shift, shell._dot_mask
    rhs_sids_of = shell._prod_rhs_sids
    num_terminals = shell.ids.num_terminals
    kernel_shifts: List[Tuple[int, int]] = []
    reductions: List[Item] = []
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
    added = bytearray(shell.ids.num_nonterminals)
    derived: "array" = array("i")
    first_nts = shell._nt_first_nts
    i = 0
    while i < len(frontier):
        nt_id = frontier[i]
        i += 1
        if added[nt_id]:
            continue
        added[nt_id] = 1
        derived.append(nt_id)
        frontier.extend(first_nts[nt_id])
    epsilon_items = shell._nt_epsilon_items
    for nt_id in derived:
        reductions.extend(epsilon_items[nt_id])

    by_sid = {}
    for sid, code in kernel_shifts:
        bucket = by_sid.get(sid)
        if bucket is None:
            by_sid[sid] = [code]
        else:
            bucket.append(code)
    shift_entries = shell._nt_shift_entries
    for nt_id in derived:
        for sid, code in shift_entries[nt_id]:
            bucket = by_sid.get(sid)
            if bucket is None:
                by_sid[sid] = [code]
            else:
                bucket.append(code)
    order = shell.ids.declaration_order()
    buckets: List[Tuple[int, Tuple[int, ...]]] = []
    for sid in sorted(by_sid, key=order.__getitem__):
        codes = by_sid[sid]
        codes.sort()
        buckets.append((sid, tuple(codes)))
    return derived, tuple(reductions), buckets
