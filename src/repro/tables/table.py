"""Parse-table representation shared by all four constructions.

A :class:`ParseTable` is the classic ACTION/GOTO pair:

- ``actions[state][terminal]`` is a :class:`Shift`, :class:`Reduce`,
  :class:`Accept` (absent = syntax error);
- ``gotos[state][nonterminal]`` is the successor state.

Alongside the Symbol-keyed dict rows, every table carries **dense
ID-indexed rows** (``action_rows[state][terminal_id]``,
``goto_rows[state][nt_id]``) built from the grammar's
:class:`~repro.grammar.symbols.SymbolIds` layout — the parse engine
compiles these flat lists into its integer arrays instead of hashing
Symbols.

Conflicts found while filling a cell are recorded (see
:mod:`repro.tables.conflicts`), a deterministic winner is kept in the
table (yacc's tie-breaks), and ``table.is_deterministic`` tells whether the
grammar was conflict-free for the construction used.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from ..grammar.grammar import Grammar
from ..grammar.symbols import Symbol
from .conflicts import Conflict


class Action:
    """Base class for parse actions (sum type: Shift | Reduce | Accept)."""

    __slots__ = ()

    kind = "action"


class Shift(Action):
    """Shift the lookahead and move to ``state``."""

    __slots__ = ("state",)

    kind = "shift"

    def __init__(self, state: int):
        self.state = state

    def __repr__(self) -> str:
        return f"s{self.state}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Shift) and other.state == self.state

    def __hash__(self) -> int:
        return hash(("shift", self.state))


class Reduce(Action):
    """Reduce by production ``production`` (an index into the grammar)."""

    __slots__ = ("production",)

    kind = "reduce"

    def __init__(self, production: int):
        self.production = production

    def __repr__(self) -> str:
        return f"r{self.production}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Reduce) and other.production == self.production

    def __hash__(self) -> int:
        return hash(("reduce", self.production))


class Accept(Action):
    """Accept the input."""

    __slots__ = ()

    kind = "accept"

    def __repr__(self) -> str:
        return "acc"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Accept)

    def __hash__(self) -> int:
        return hash("accept")


ACCEPT = Accept()


class ParseTable:
    """ACTION/GOTO tables plus conflict metadata for one construction."""

    def __init__(
        self,
        grammar: Grammar,
        method: str,
        actions: List[Dict[Symbol, Action]],
        gotos: List[Dict[Symbol, int]],
        conflicts: List[Conflict],
    ):
        self.grammar = grammar
        #: Which construction produced the table: "lr0", "slr1", "lalr1", "clr1".
        self.method = method
        self.actions = actions
        self.gotos = gotos
        self.conflicts = conflicts

        # Dense ID-indexed twins of the dict rows: the engine's fast path.
        ids = grammar.ids
        terminal_id = ids.terminal_id
        nonterminal_id = ids.nonterminal_id
        num_terminals = ids.num_terminals
        empty_goto_row = array("i", [-1]) * ids.num_nonterminals
        self.action_rows: List[List[Optional[Action]]] = []
        for row in actions:
            dense: List[Optional[Action]] = [None] * num_terminals
            for terminal, action in row.items():
                dense[terminal_id(terminal)] = action
            self.action_rows.append(dense)
        self.goto_rows: List["array"] = []
        for row in gotos:
            goto_dense = array(empty_goto_row.typecode, empty_goto_row)
            for nonterminal, target in row.items():
                goto_dense[nonterminal_id(nonterminal)] = target
            self.goto_rows.append(goto_dense)

    @classmethod
    def from_rows(
        cls,
        grammar: Grammar,
        method: str,
        actions: List[Dict[Symbol, Action]],
        gotos: List[Dict[Symbol, int]],
        conflicts: List[Conflict],
        action_rows: "List[List[Optional[Action]]]",
        goto_rows: "List[array]",
    ) -> "ParseTable":
        """Assemble a table from prebuilt dict *and* dense rows.

        The incremental refill path uses this to share the untouched
        rows of a previous table object-for-object instead of paying
        ``__init__``'s dense-row reconstruction for every state.  The
        caller guarantees the dense rows mirror the dict rows.
        """
        self = object.__new__(cls)
        self.grammar = grammar
        self.method = method
        self.actions = actions
        self.gotos = gotos
        self.conflicts = conflicts
        self.action_rows = action_rows
        self.goto_rows = goto_rows
        return self

    @property
    def n_states(self) -> int:
        return len(self.actions)

    @property
    def is_deterministic(self) -> bool:
        """True iff no *unresolved* conflicts remain.

        Conflicts settled by precedence/associativity declarations do not
        count against determinism (they are resolutions, as in yacc).
        """
        return not self.unresolved_conflicts

    @property
    def unresolved_conflicts(self) -> List[Conflict]:
        return [c for c in self.conflicts if not c.resolved_by_precedence]

    def action(self, state: int, terminal: Symbol) -> Optional[Action]:
        """The parse action for (state, lookahead), or None (error)."""
        return self.actions[state].get(terminal)

    def goto(self, state: int, nonterminal: Symbol) -> Optional[int]:
        return self.gotos[state].get(nonterminal)

    def action_by_id(self, state: int, terminal_id: int) -> Optional[Action]:
        """The parse action for (state, terminal ID) — no Symbol hashing."""
        return self.action_rows[state][terminal_id]

    def goto_by_id(self, state: int, nt_id: int) -> int:
        """The goto target for (state, nonterminal ID), or -1."""
        return self.goto_rows[state][nt_id]

    def conflict_summary(self) -> Dict[str, int]:
        """Counts by conflict kind (shift/reduce vs reduce/reduce)."""
        summary = {"shift_reduce": 0, "reduce_reduce": 0, "resolved": 0}
        for conflict in self.conflicts:
            if conflict.resolved_by_precedence:
                summary["resolved"] += 1
            elif conflict.kind == "shift/reduce":
                summary["shift_reduce"] += 1
            else:
                summary["reduce_reduce"] += 1
        return summary

    def size_cells(self) -> int:
        """Number of populated table cells (actions + gotos)."""
        return sum(len(row) for row in self.actions) + sum(
            len(row) for row in self.gotos
        )

    def format(self, max_states: int = 0) -> str:
        """Render the table as aligned text (like the tables in parsing
        textbooks); *max_states* truncates large tables for display."""
        terminals = [t for t in self.grammar.terminals]
        nonterminals = [
            nt for nt in self.grammar.nonterminals if nt is not self.grammar.start
        ]
        header = ["state"] + [t.name for t in terminals] + [
            nt.name for nt in nonterminals
        ]
        rows: List[List[str]] = [header]
        states = range(self.n_states if not max_states else min(self.n_states, max_states))
        for state in states:
            row = [str(state)]
            for terminal in terminals:
                action = self.actions[state].get(terminal)
                row.append(repr(action) if action is not None else "")
            for nonterminal in nonterminals:
                target = self.gotos[state].get(nonterminal)
                row.append(str(target) if target is not None else "")
            rows.append(row)
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        if max_states and self.n_states > max_states:
            lines.append(f"... ({self.n_states - max_states} more states)")
        return "\n".join(lines)
