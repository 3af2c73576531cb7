"""The engine's view of a parse table: its code arrays as Python lists.

:class:`~repro.parser.engine.Parser` runs its one token loop over this
form:

- ``action_codes`` / ``goto_codes`` — the table's own flat code arrays
  (:mod:`repro.tables.table` documents the encoding) copied into Python
  lists: the hot loop reads them constantly, and list indexing returns
  the stored int without the per-read box ``array('i')`` pays.  A lookup
  is ``codes[state * num_terminals + tid]`` and dispatch is ``code & 3``;
- ``arities`` / ``lhs_nts`` — per-production RHS length and LHS
  nonterminal index, so a reduction never touches the Production object
  until the semantic callback needs it;
- ``default_codes`` — per-state *default reduction* entries in the
  yacc/bison tradition, but under a strict guard: a state gets a default
  only when **every** terminal column (including the end marker) holds
  the *same* reduce action.  Classic generators also default-reduce
  states whose rows still contain error cells and accept the resulting
  delayed error detection; this repo pins error positions, messages and
  expected sets byte-identical across engines, so only the fully-uniform
  rows — where consulting the look-ahead provably cannot change the
  outcome — qualify.  ``default_codes[state]`` is the encoded reduce, or
  ``-1``.

The view keeps its ``source`` table for everything else.
"""

from __future__ import annotations

from typing import Dict, List

from .table import (
    ACTION_ACCEPT,
    ACTION_ERROR,
    ACTION_REDUCE,
    ACTION_SHIFT,
    ParseTable,
)

__all__ = ["SpecializedTable", "specialize", "specialized_view"]


class SpecializedTable:
    """A parse table compiled into flat integer arrays for the engine."""

    def __init__(self, table: ParseTable):
        self.source = table
        ids = table.grammar.ids
        width = self.num_terminals = ids.num_terminals
        self.num_nonterminals = ids.num_nonterminals
        self.action_codes: "List[int]" = table.action_codes.tolist()
        self.goto_codes: "List[int]" = table.goto_codes.tolist()

        default_codes: "List[int]" = []
        codes = self.action_codes
        for base in range(0, len(codes), width):
            first = codes[base]
            uniform = (first & 3) == ACTION_REDUCE and codes[
                base:base + width
            ].count(first) == width
            default_codes.append(first if uniform else -1)
        self.default_codes = default_codes

        productions = table.grammar.productions
        self.arities = [len(p.rhs_sids) for p in productions]
        self.lhs_nts = [p.lhs_sid - width for p in productions]

    def specialization_stats(self) -> "Dict[str, int]":
        """Machine-independent figures, pure functions of the table (the
        hot-loop bench drift-checks these)."""
        populated = sum(1 for code in self.action_codes if code != ACTION_ERROR)
        return {
            "states": len(self.default_codes),
            "action_cells": len(self.action_codes),
            "populated_cells": populated,
            "default_states": sum(1 for c in self.default_codes if c >= 0),
            "shift_cells": sum(
                1 for c in self.action_codes if (c & 3) == ACTION_SHIFT
            ),
            "reduce_cells": sum(
                1 for c in self.action_codes
                if (c & 3) == ACTION_REDUCE and c != ACTION_ERROR
            ),
            "accept_cells": sum(
                1 for c in self.action_codes if c == ACTION_ACCEPT
            ),
        }


def specialize(table: ParseTable) -> SpecializedTable:
    """The engine's list view of *table*'s code arrays."""
    return SpecializedTable(table)


def specialized_view(table) -> SpecializedTable:
    """A memoized :func:`specialize` of *table*; a compiled table is
    returned as is.

    Every :class:`~repro.parser.engine.Parser` construction calls this,
    and the service constructs one per request on tables that come off
    the hot LRU; compiling once per table object (not per parser) keeps
    the cost off the steady-state path.  Safe under the service's thread
    executor: the build is idempotent and the attribute publish is
    atomic.
    """
    if isinstance(table, SpecializedTable):
        return table
    cached = getattr(table, "_specialized_view", None)
    if cached is None or cached.source is not table:
        cached = table._specialized_view = SpecializedTable(table)
    return cached
