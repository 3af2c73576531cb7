"""Displacement (comb / double-offset) parse-table compression.

The classic table-compaction scheme used by real generators (yacc's
``yytable``/``yycheck``, bison, and booze-tools' compaction pass): all
ACTION rows are merged into one shared ``value`` array by sliding each
row to a per-row *displacement* where its populated columns fall into
slots no other row claimed.  A parallel ``check`` array records which row
owns each slot, so a lookup is::

    slot = displacement[state] + column
    hit  = 0 <= slot < len(check) and check[slot] == state

Storage drops from ``n_states * n_columns`` dense cells to roughly the
number of *populated* cells (plus comb gaps), while lookup stays O(1).
GOTO rows are packed the same way into their own comb.

Everything observable is unchanged: :class:`DisplacedTable` exposes the
same ``action_rows``/``goto_rows`` dense-row interface the parse engine
drives (rows are lazy views over the packed arrays), so parses, error
positions, messages and expected sets are byte-identical to the plain
:class:`~repro.tables.table.ParseTable` — the representation-parity
tests and the fuzz oracle pin this down.

The integer **action encoding** shared with the binary table format
(:mod:`repro.tables.binfmt`) and the array-backed generated parsers
(:mod:`repro.tables.codegen`)::

    0                    error / absent cell
    (state << 2) | 1     shift to ``state``
    (production << 2) | 2reduce by ``production``
    3                    accept

Packing is deterministic: rows are placed densest-first (ties by row
index) with first-fit displacement search, so the packed arrays — and
any artifact serialised from them — are a pure function of the table.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from ..grammar.symbols import Symbol
from .table import ACCEPT, Action, ParseTable, Reduce, Shift

__all__ = [
    "ACTION_ERROR",
    "ACTION_SHIFT",
    "ACTION_REDUCE",
    "ACTION_ACCEPT",
    "ActionDecoder",
    "DisplacedTable",
    "displace",
    "encode_action",
    "pack_rows",
]

#: Tag bits of the shared integer action encoding.
ACTION_ERROR = 0
ACTION_SHIFT = 1
ACTION_REDUCE = 2
ACTION_ACCEPT = 3


def encode_action(action: "Optional[Action]") -> int:
    """The integer encoding of *action* (0 for an empty/error cell)."""
    if action is None:
        return ACTION_ERROR
    kind = action.kind
    if kind == "shift":
        return (action.state << 2) | ACTION_SHIFT
    if kind == "reduce":
        return (action.production << 2) | ACTION_REDUCE
    if kind == "accept":
        return ACTION_ACCEPT
    raise ValueError(f"cannot encode action {action!r}")


class ActionDecoder:
    """Decode encoded action ints back to shared :class:`Action` objects.

    Shift/Reduce instances are interned per target/production so decoding
    the same cell twice yields the identical object — row views stay as
    cheap as the eager dense rows after first touch.
    """

    __slots__ = ("_shifts", "_reduces")

    def __init__(self) -> None:
        self._shifts: Dict[int, Shift] = {}
        self._reduces: Dict[int, Reduce] = {}

    def decode(self, encoded: int) -> "Optional[Action]":
        if encoded == ACTION_ERROR:
            return None
        tag = encoded & 3
        arg = encoded >> 2
        if tag == ACTION_SHIFT:
            action = self._shifts.get(arg)
            if action is None:
                action = self._shifts[arg] = Shift(arg)
            return action
        if tag == ACTION_REDUCE:
            action = self._reduces.get(arg)
            if action is None:
                action = self._reduces[arg] = Reduce(arg)
            return action
        if encoded == ACTION_ACCEPT:
            return ACCEPT
        raise ValueError(f"invalid encoded action {encoded!r}")


def pack_rows(
    rows: "Sequence[Sequence[int]]", empty: int = 0
) -> "Tuple[array, array, array]":
    """Comb-pack dense integer *rows* (cells equal to *empty* are absent).

    Returns ``(displacements, check, values)`` — three ``array('i')``:
    ``values[displacements[r] + c]`` holds row *r*'s cell *c* whenever
    ``check`` at that slot equals *r*; any other slot is a miss (the cell
    is *empty*).  Placement is densest-row-first with a first-fit
    displacement scan, which keeps the comb short and is deterministic.
    """
    n_rows = len(rows)
    displacements = array("i", [0]) * n_rows if n_rows else array("i")
    check: List[int] = []
    values: List[int] = []
    populated = [
        [(col, cell) for col, cell in enumerate(row) if cell != empty]
        for row in rows
    ]
    order = sorted(range(n_rows), key=lambda r: (-len(populated[r]), r))
    for row_id in order:
        cells = populated[row_id]
        if not cells:
            displacements[row_id] = 0
            continue
        cols = [col for col, _ in cells]
        displacement = 0
        limit = len(check)
        while True:
            if all(
                displacement + col >= limit or check[displacement + col] == -1
                for col in cols
            ):
                break
            displacement += 1
        displacements[row_id] = displacement
        need = displacement + cols[-1] + 1
        if need > limit:
            check.extend([-1] * (need - limit))
            values.extend([empty] * (need - len(values)))
        for col, cell in cells:
            check[displacement + col] = row_id
            values[displacement + col] = cell
    return displacements, array("i", check), array("i", values)


class _PackedActionRow:
    """One state's ACTION row, viewed through the packed comb arrays.

    Supports exactly what compiling the table for the engine,
    ``_syntax_error`` and panic-mode recovery use: ``row[tid]`` (an
    :class:`Action` or None) and ``len(row)``.
    """

    __slots__ = ("_table", "_state", "_displacement")

    def __init__(self, table: "DisplacedTable", state: int):
        self._table = table
        self._state = state
        self._displacement = table.action_displacements[state]

    def __len__(self) -> int:
        return self._table.num_terminals

    def __getitem__(self, terminal_id: int) -> "Optional[Action]":
        table = self._table
        if not 0 <= terminal_id < table.num_terminals:
            raise IndexError(terminal_id)
        slot = self._displacement + terminal_id
        check = table.action_check
        if 0 <= slot < len(check) and check[slot] == self._state:
            return table.decoder.decode(table.action_values[slot])
        return None


class _PackedGotoRow:
    """One state's GOTO row over the packed comb (``-1`` means absent)."""

    __slots__ = ("_table", "_state", "_displacement")

    def __init__(self, table: "DisplacedTable", state: int):
        self._table = table
        self._state = state
        self._displacement = table.goto_displacements[state]

    def __len__(self) -> int:
        return self._table.num_nonterminals

    def __getitem__(self, nt_id: int) -> int:
        table = self._table
        if not 0 <= nt_id < table.num_nonterminals:
            raise IndexError(nt_id)
        slot = self._displacement + nt_id
        check = table.goto_check
        if 0 <= slot < len(check) and check[slot] == self._state:
            return table.goto_values[slot]
        return -1


class DisplacedTable:
    """A ParseTable repacked into shared displacement (comb) arrays.

    Exposes the full table interface the engine and the diagnostics
    paths drive — ``action_rows``/``goto_rows`` (lazy views over the
    packed arrays), the Symbol-keyed ``action``/``goto`` lookups, and the
    conflict metadata of the source table — so it is a drop-in row
    *representation*, never a semantics change.
    """

    def __init__(self, table: ParseTable):
        self.grammar = table.grammar
        self.method = table.method + "+displacement"
        self.actions = table.actions
        self.gotos = table.gotos
        self.conflicts = table.conflicts
        ids = self.grammar.ids
        self.num_terminals = ids.num_terminals
        self.num_nonterminals = ids.num_nonterminals
        self.decoder = ActionDecoder()

        encoded_actions = [
            [encode_action(cell) for cell in row] for row in table.action_rows
        ]
        (
            self.action_displacements,
            self.action_check,
            self.action_values,
        ) = pack_rows(encoded_actions, empty=ACTION_ERROR)
        (
            self.goto_displacements,
            self.goto_check,
            self.goto_values,
        ) = pack_rows([list(row) for row in table.goto_rows], empty=-1)

        self.action_rows: List[_PackedActionRow] = [
            _PackedActionRow(self, state) for state in range(len(table.actions))
        ]
        self.goto_rows: List[_PackedGotoRow] = [
            _PackedGotoRow(self, state) for state in range(len(table.gotos))
        ]
        #: Dense cells of the source table, for the compression report.
        self._dense_cells = len(table.actions) * self.num_terminals + len(
            table.gotos
        ) * self.num_nonterminals
        self._populated_cells = table.size_cells()

    # -- ParseTable-compatible surface ---------------------------------

    @property
    def n_states(self) -> int:
        return len(self.action_rows)

    @property
    def is_deterministic(self) -> bool:
        return not self.unresolved_conflicts

    @property
    def unresolved_conflicts(self):
        return [c for c in self.conflicts if not c.resolved_by_precedence]

    def action(self, state: int, terminal: Symbol) -> "Optional[Action]":
        return self.actions[state].get(terminal)

    def goto(self, state: int, nonterminal: Symbol) -> "Optional[int]":
        return self.gotos[state].get(nonterminal)

    def action_by_id(self, state: int, terminal_id: int) -> "Optional[Action]":
        return self.action_rows[state][terminal_id]

    def goto_by_id(self, state: int, nt_id: int) -> int:
        return self.goto_rows[state][nt_id]

    def conflict_summary(self) -> Dict[str, int]:
        summary = {"shift_reduce": 0, "reduce_reduce": 0, "resolved": 0}
        for conflict in self.conflicts:
            if conflict.resolved_by_precedence:
                summary["resolved"] += 1
            elif conflict.kind == "shift/reduce":
                summary["shift_reduce"] += 1
            else:
                summary["reduce_reduce"] += 1
        return summary

    # -- compression accounting ----------------------------------------

    def size_cells(self) -> int:
        """Slots the packed representation stores (combs + displacements)."""
        return (
            len(self.action_values)
            + len(self.goto_values)
            + len(self.action_displacements)
            + len(self.goto_displacements)
        )

    def packing_stats(self) -> Dict[str, int]:
        """Machine-independent packing figures (bench drift asserts on
        these): dense cells, populated cells, comb slots, wasted gaps."""
        comb_slots = len(self.action_values) + len(self.goto_values)
        gaps = sum(1 for c in self.action_check if c == -1) + sum(
            1 for c in self.goto_check if c == -1
        )
        return {
            "dense_cells": self._dense_cells,
            "populated_cells": self._populated_cells,
            "action_comb_slots": len(self.action_values),
            "goto_comb_slots": len(self.goto_values),
            "comb_slots": comb_slots,
            "comb_gaps": gaps,
            "stored_cells": self.size_cells(),
        }


def displace(table: ParseTable) -> DisplacedTable:
    """Apply displacement (comb) compression to *table*."""
    return DisplacedTable(table)


def displacement_ratio(table: ParseTable) -> float:
    """Dense cells / displacement-stored cells (>1 means savings)."""
    stored = DisplacedTable(table).size_cells()
    dense = len(table.actions) * table.grammar.ids.num_terminals + len(
        table.gotos
    ) * table.grammar.ids.num_nonterminals
    return dense / stored if stored else 1.0
