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

The engine does not read the ``Action`` tuples.  Once per table the
view also flattens every cell into integer code tuples indexed by
``state * num_terminals + terminal_id``, in the same canonical order:
``reduce_cells`` (every reduce's production index), ``reduce_nonempty_cells``
(the non-ε ones, which Farshi re-reduction re-runs), ``shift_cells``
(target states) and ``accept_cells`` (a flag).  Clean cells with the
same code share their tuples.  ``lr_cells`` flattens the same cells once
more for the engine's LR mode: a cell holding exactly one action becomes
one int (a production index for a reduce, :data:`LR_ACCEPT`, or
``LR_SHIFT - state`` for a shift); an empty or forked cell is
:data:`LR_NONE`.

The view works the same over a freshly built table and one loaded from
either artifact format.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .table import Action, ActionDecoder, ParseTable

__all__ = ["LR_ACCEPT", "LR_NONE", "LR_SHIFT", "NondeterministicTable", "nondet_view"]

#: ``lr_cells`` codes below zero: no single action, accept, and the base
#: of the shift codes (``LR_SHIFT - state``).
LR_NONE = -1
LR_ACCEPT = -2
LR_SHIFT = -3


def _cell_order(action: Action) -> "Tuple[int, int]":
    """Canonical within-cell sort key: accept, shift, reduces ascending."""
    if action.kind == "accept":
        return (0, 0)
    if action.kind == "shift":
        return (1, action.state)
    return (2, action.production)


def _single(cell: tuple) -> int:
    """One split cell as its ``lr_cells`` code."""
    reduces, _, shifts, accept = cell
    if len(reduces) + len(shifts) + accept != 1:
        return LR_NONE
    if reduces:
        return reduces[0]
    return LR_SHIFT - shifts[0] if shifts else LR_ACCEPT


def _split(actions: "Tuple[Action, ...]", arities: "List[int]") -> tuple:
    """One cell as (reduces, non-ε reduces, shift targets, accept flag)."""
    reduces = tuple(a.production for a in actions if a.kind == "reduce")
    return (
        reduces,
        tuple(p for p in reduces if arities[p]),
        tuple(a.state for a in actions if a.kind == "shift"),
        any(a.kind == "accept" for a in actions),
    )


class NondeterministicTable:
    """Per-cell action *tuples* merged from a table's rows + conflicts.

    Attributes:
        table: The underlying single-winner table.
        grammar: The (augmented) grammar the table was built for.
        rows: ``rows[state][terminal_id]`` is a tuple of actions (empty
            = syntax error); at most one cell per unresolved conflict
            holds more than one.
        conflict_cells: How many cells hold more than one action.
        reduce_cells, reduce_nonempty_cells, shift_cells, accept_cells,
        lr_cells: The same cells as integer codes, flat over
            ``state * num_terminals + terminal_id`` (module docstring).
        goto_codes: The table's ``goto_codes`` as a list.
        arities, lhs_nts: Per production, the RHS length and the LHS
            nonterminal index.
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

        self.goto_codes = table.goto_codes.tolist()
        productions = self.grammar.productions
        self.arities = arities = [len(p.rhs_sids) for p in productions]
        self.lhs_nts = [p.lhs_sid - width for p in productions]
        # Clean cells split once per distinct code; merged cells each.
        by_code: "Dict[int, tuple]" = {}
        cells: "List[tuple]" = []
        for code in codes:
            entry = by_code.get(code)
            if entry is None:
                entry = by_code[code] = _split(
                    (decode(code),) if code else (), arities
                )
            cells.append(entry)
        for state, tid in merged:
            cells[state * width + tid] = _split(rows[state][tid], arities)
        self.reduce_cells = [cell[0] for cell in cells]
        self.reduce_nonempty_cells = [cell[1] for cell in cells]
        self.shift_cells = [cell[2] for cell in cells]
        self.accept_cells = [cell[3] for cell in cells]
        singles: "Dict[int, int]" = {}
        lr_cells: "List[int]" = []
        for cell in cells:
            code = singles.get(id(cell))
            if code is None:
                code = singles[id(cell)] = _single(cell)
            lr_cells.append(code)
        self.lr_cells = lr_cells

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
