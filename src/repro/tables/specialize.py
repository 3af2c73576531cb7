"""Compile a parse table into the integer arrays the engine loop reads.

:class:`~repro.parser.engine.Parser` drives every table — dense,
compressed, displaced, binary — through this one compiled form, so
the engine has exactly one token loop and every representation differs
only in size and load time:

- ``action_codes`` — the dense ACTION matrix flattened row-major into
  one Python list of encoded ints (the shared encoding from
  :mod:`repro.tables.displace`: ``0`` error, ``(s << 2) | 1`` shift,
  ``(p << 2) | 2`` reduce, ``3`` accept), so a lookup is
  ``codes[state * num_terminals + tid]`` and dispatch is ``code & 3``;
- ``goto_codes`` — the GOTO matrix flattened the same way (``-1``
  absent);
- ``arities`` / ``lhs_nts`` — per-production RHS length and LHS
  nonterminal index, so a reduction never touches the Production object
  until the semantic callback needs it;
- ``default_codes`` — per-state *default reduction* entries in the
  yacc/bison tradition, but under a strict guard: a state gets a default
  only when **every** terminal column (including the end marker) holds
  the *same* reduce action.  Classic generators also default-reduce
  states whose rows still contain error cells and accept the resulting
  delayed error detection; this repo pins error positions, messages and
  expected sets byte-identical across representations and engines, so
  only the fully-uniform rows — where consulting the look-ahead provably
  cannot change the outcome — qualify.  ``default_codes[state]`` is the
  encoded reduce, or ``-1``.

The compiled form keeps its ``source`` table: diagnostics (expected
sets) and panic-mode recovery read the source's dense rows.
"""

from __future__ import annotations

from typing import Dict, List

from .displace import (
    ACTION_ACCEPT,
    ACTION_ERROR,
    ACTION_REDUCE,
    ACTION_SHIFT,
    encode_action,
)
from .table import ParseTable

__all__ = ["SpecializedTable", "specialize", "specialized_view"]


class SpecializedTable:
    """A parse table compiled into flat integer arrays for the engine."""

    def __init__(self, table: ParseTable):
        self.source = table
        ids = table.grammar.ids
        self.num_terminals = ids.num_terminals
        self.num_nonterminals = ids.num_nonterminals

        width = self.num_terminals
        # Plain Python lists, not array('i'): the hot loop reads these
        # constantly and list indexing returns the stored int without a
        # per-read box.
        action_codes: "List[int]" = []
        default_codes: "List[int]" = []
        for row in table.action_rows:
            coded = [encode_action(cell) for cell in row]
            action_codes.extend(coded)
            first = coded[0] if coded else ACTION_ERROR
            uniform = (
                (first & 3) == ACTION_REDUCE
                and all(code == first for code in coded)
            )
            default_codes.append(first if uniform else -1)
        self.action_codes = action_codes
        self.default_codes = default_codes

        goto_codes: "List[int]" = []
        for goto_row in table.goto_rows:
            goto_codes.extend(goto_row)
        self.goto_codes = goto_codes

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
    """Compile *table* (any dense-row representation) for the engine."""
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
        cached = SpecializedTable(table)
        try:
            table._specialized_view = cached
        except AttributeError:  # slotted/frozen table: recompile per call
            pass
    return cached
