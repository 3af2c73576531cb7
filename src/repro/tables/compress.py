"""Parse-table compression: default reductions.

A classic generator optimisation (yacc, Bison): in each ACTION row, the
most common reduce action becomes the row's *default*; its explicit cells
are dropped, and the parser takes the default whenever the lookahead has
no entry.  Rows that contain only one distinct reduce shrink to a single
default cell.

Consequence (and the reason it is safe): under the classic lookup
scheme erroneous input may trigger a few extra reductions before the
error is detected — but never an extra *shift*, so no input is ever
wrongly accepted, and the error position can move only past reductions,
never past consumed tokens.  This is the same contract Bison documents.

Here compression is a size statistic (the paper-table reproductions and
``repro table --compress default`` report it): :class:`CompressedTable`
keeps the sparse rows, the per-state defaults and the classic
:meth:`~CompressedTable.action` lookup.  The parse engines always run on
the uncompressed :class:`~repro.tables.table.ParseTable`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from ..grammar.symbols import Symbol
from .table import ACTION_ACCEPT, Action, ParseTable, Reduce


class CompressedTable:
    """A ParseTable's ACTION rows with per-state default reduce actions.

    :meth:`action` consults the row default on any miss — the classic
    yacc storage scheme, where erroneous lookaheads may trigger a few
    extra reductions before the error surfaces.
    """

    def __init__(self, table: ParseTable):
        ids = table.grammar.ids
        width = ids.num_terminals
        eof_column = ids.terminal_id(table.grammar.eof)
        if ACTION_ACCEPT not in table.action_codes[eof_column::width]:
            # Without this guard a default reduce in the $end column
            # would silently stand in for the missing accept and the
            # parser would reduce forever at end of input.
            raise ValueError(
                "cannot compress a table with no accept action on "
                f"{table.grammar.eof.name}: a column default would mask "
                "the missing accept"
            )
        self.defaults: List[Optional[Reduce]] = []
        self.actions: List[Dict[Symbol, Action]] = []
        for row in table.actions:
            reduces = Counter(
                action for action in row.values() if action.kind == "reduce"
            )
            if not reduces:
                self.defaults.append(None)
                self.actions.append(dict(row))
                continue
            default, _count = reduces.most_common(1)[0]
            self.defaults.append(default)
            self.actions.append(
                {t: action for t, action in row.items() if action != default}
            )
        goto_codes = table.goto_codes
        self._goto_cells = len(goto_codes) - goto_codes.count(-1)

    def action(self, state: int, terminal: Symbol) -> Optional[Action]:
        explicit = self.actions[state].get(terminal)
        if explicit is not None:
            return explicit
        return self.defaults[state]

    def size_cells(self) -> int:
        """Populated cells after compression (defaults count as one each)."""
        return (
            sum(len(row) for row in self.actions)
            + self._goto_cells
            + sum(1 for default in self.defaults if default is not None)
        )


def compress(table: ParseTable) -> CompressedTable:
    """Apply default-reduction compression to *table*."""
    return CompressedTable(table)


def compression_ratio(table: ParseTable) -> float:
    """Original cells / compressed cells (>1 means savings)."""
    compressed_cells = compress(table).size_cells()
    return table.size_cells() / compressed_cells if compressed_cells else 1.0
