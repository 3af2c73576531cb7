"""Conflict-list view of a parse table — the GLR engine's fuel.

A :class:`~repro.tables.table.ParseTable` keeps exactly one action per
ACTION cell (the yacc-default winner) and records the losers in its
``conflicts`` log.  :class:`NondeterministicTable` merges the two back
together: every cell of the table's ``action_codes`` becomes a *tuple of
actions* — a 1-tuple for the clean cells, the full competing set for
cells with unresolved conflicts.  The RNGLR engine
(:mod:`repro.parser.glr`) forks its graph-structured stack on exactly
these tuples and reads GOTO straight from the table's ``goto_codes``.

Two deliberate choices:

- **Precedence resolutions stay resolved.**  A cell settled by
  ``%left``/``%right``/``%nonassoc`` keeps only its winner (or stays
  empty for a %nonassoc erasure): the user *declared* that resolution,
  so the GLR engine honours it exactly like the deterministic engine.
  Only *unresolved* conflicts fork.
- **Canonical cell order.**  Within a conflicted cell the actions are
  ordered accept, shift, then reduces by ascending production index —
  a pure function of the action set, independent of conflict-discovery
  order, so a table reloaded from an artifact drives the GLR engine
  identically to a freshly built one.

The view works the same over a freshly built table and one loaded from
either artifact format.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .table import Action, ActionDecoder, ParseTable

__all__ = ["NondeterministicTable", "nondet_view"]


def _cell_order(action: Action) -> "Tuple[int, int]":
    """Canonical within-cell sort key: accept, shift, reduces ascending."""
    if action.kind == "accept":
        return (0, 0)
    if action.kind == "shift":
        return (1, action.state)
    return (2, action.production)


class NondeterministicTable:
    """Per-cell action *tuples* merged from a table's rows + conflicts.

    Attributes:
        table: The underlying single-winner table.
        grammar: The (augmented) grammar the table was built for.
        rows: ``rows[state][terminal_id]`` is a tuple of actions (empty
            = syntax error); at most one cell per unresolved conflict
            holds more than one.
        conflict_cells: How many cells hold more than one action.
    """

    def __init__(self, table: ParseTable):
        self.table = table
        self.grammar = table.grammar
        self.method = table.method
        ids = self.grammar.ids
        terminal_id = ids.terminal_id

        merged: "Dict[Tuple[int, int], List[Action]]" = {}
        for conflict in table.conflicts:
            if conflict.resolved_by_precedence:
                continue
            key = (conflict.state, terminal_id(conflict.terminal))
            bucket = merged.setdefault(key, [])
            for action in conflict.actions:
                if action not in bucket:
                    bucket.append(action)

        width = ids.num_terminals
        codes = table.action_codes
        decode = ActionDecoder().decode
        rows: "List[List[tuple]]" = [
            [(decode(code),) if code else () for code in codes[base:base + width]]
            for base in range(0, len(codes), width)
        ]
        for (state, tid), bucket in merged.items():
            # The cell's winner is one of the competing actions by
            # construction, but fold it in defensively (a %nonassoc
            # erasure followed by a later conflict could drift).
            winner = decode(codes[state * width + tid])
            if winner is not None and winner not in bucket:
                bucket.append(winner)
            rows[state][tid] = tuple(sorted(bucket, key=_cell_order))
        self.rows = rows
        self.conflict_cells = len(merged)

    @property
    def n_states(self) -> int:
        return len(self.rows)

    @property
    def is_deterministic(self) -> bool:
        """True iff no cell forks (every tuple has at most one action)."""
        return self.conflict_cells == 0


def nondet_view(table) -> NondeterministicTable:
    """The memoized :class:`NondeterministicTable` for *table*.

    Mirrors :func:`repro.tables.specialize.specialized_view`: the view is
    built once per table object and cached on it, so tables coming off
    the service's hot LRU pay the merge exactly once.
    """
    view = getattr(table, "_nondet_view", None)
    if view is None or view.table is not table:
        view = table._nondet_view = NondeterministicTable(table)
    return view
