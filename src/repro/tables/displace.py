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

:class:`DisplacedTable` packs a table's canonical code arrays
(``ParseTable.action_codes`` / ``goto_codes``, whose integer action
encoding is documented in :mod:`repro.tables.table`) and reports the
packing figures; the ``"displace"`` style of :mod:`repro.tables.codegen`
emits the same combs as a standalone parser.

Packing is deterministic: rows are placed densest-first (ties by row
index) with first-fit displacement search, so the packed arrays — and
any artifact serialised from them — are a pure function of the table.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Sequence, Tuple

from .table import ACTION_ERROR, ParseTable

__all__ = ["DisplacedTable", "displace", "displacement_ratio", "pack_rows"]


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


class DisplacedTable:
    """A ParseTable's code arrays repacked into displacement (comb) arrays."""

    def __init__(self, table: ParseTable):
        ids = table.grammar.ids
        width = ids.num_terminals
        n_nts = ids.num_nonterminals
        n_states = table.n_states
        action_codes = table.action_codes
        goto_codes = table.goto_codes
        (
            self.action_displacements,
            self.action_check,
            self.action_values,
        ) = pack_rows(
            [action_codes[s * width:(s + 1) * width] for s in range(n_states)],
            empty=ACTION_ERROR,
        )
        (
            self.goto_displacements,
            self.goto_check,
            self.goto_values,
        ) = pack_rows(
            [goto_codes[s * n_nts:(s + 1) * n_nts] for s in range(n_states)],
            empty=-1,
        )
        #: Dense cells of the source table, for the compression report.
        self._dense_cells = len(action_codes) + len(goto_codes)
        self._populated_cells = table.size_cells()

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
            # Slots the packed form stores: combs plus displacements.
            "stored_cells": comb_slots
            + len(self.action_displacements)
            + len(self.goto_displacements),
        }


def displace(table: ParseTable) -> DisplacedTable:
    """Apply displacement (comb) compression to *table*."""
    return DisplacedTable(table)


def displacement_ratio(table: ParseTable) -> float:
    """Dense cells / displacement-stored cells (>1 means savings)."""
    stats = DisplacedTable(table).packing_stats()
    stored = stats["stored_cells"]
    return stats["dense_cells"] / stored if stored else 1.0
