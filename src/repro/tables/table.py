"""Parse-table representation shared by all four constructions.

A :class:`ParseTable` is the classic ACTION/GOTO pair, stored as two flat
``array('i')`` code arrays in the grammar's
:class:`~repro.grammar.symbols.SymbolIds` layout:

- ``action_codes[state * num_terminals + terminal_id]`` is one encoded
  action (see below; ``0`` = syntax error);
- ``goto_codes[state * num_nonterminals + nt_id]`` is the successor
  state, ``-1`` when absent.

The **action encoding** is the one integer form every consumer shares —
the parse engines, the binary artifact (:mod:`repro.tables.binfmt`),
displacement packing (:mod:`repro.tables.displace`) and generated
parsers (:mod:`repro.tables.codegen`)::

    0                    error / absent cell
    (state << 2) | 1     shift to ``state``
    (production << 2) | 2reduce by ``production``
    3                    accept

The codes are the table: every construction writes them directly (see
:mod:`repro.tables.build`) and both artifact loaders read them back.  The
Symbol-keyed rows — ``actions[state][terminal]`` (a :class:`Shift`,
:class:`Reduce` or :class:`Accept`) and ``gotos[state][nonterminal]`` —
are a view for diagnostics, text rendering, the JSON artifact and the
baselines, always decoded from the codes on first use and cached, so
their keys come in id order and a table has one JSON image however it
was made.

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


#: Tag bits of the action encoding.
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
    """Decode encoded action ints back to :class:`Action` objects.

    Shift/Reduce instances are interned per code, so a decoded view
    holds one object per distinct action, not one per cell.
    """

    __slots__ = ("_memo",)

    def __init__(self) -> None:
        self._memo: Dict[int, Optional[Action]] = {ACTION_ERROR: None}

    def decode(self, encoded: int) -> "Optional[Action]":
        try:
            return self._memo[encoded]
        except KeyError:
            pass
        tag = encoded & 3
        if tag == ACTION_SHIFT:
            action = Shift(encoded >> 2)
        elif tag == ACTION_REDUCE:
            action = Reduce(encoded >> 2)
        elif encoded == ACTION_ACCEPT:
            action = ACCEPT
        else:
            raise ValueError(f"invalid encoded action {encoded!r}")
        self._memo[encoded] = action
        return action


class ParseTable:
    """ACTION/GOTO code arrays plus conflict metadata for one construction."""

    def __init__(
        self,
        grammar: Grammar,
        method: str,
        action_codes: "array",
        goto_codes: "array",
        conflicts: List[Conflict],
    ):
        """A table over encoded arrays (the builders, the refill and both
        artifact loaders): nothing is decoded until a caller asks for the
        Symbol-keyed view."""
        self.grammar = grammar
        #: Which construction produced the table: "lr0", "slr1", "lalr1", "clr1".
        self.method = method
        self.action_codes = action_codes
        self.goto_codes = goto_codes
        self.conflicts = conflicts
        self.n_states = len(action_codes) // grammar.ids.num_terminals
        self._actions: "Optional[List[Dict[Symbol, Action]]]" = None
        self._gotos: "Optional[List[Dict[Symbol, int]]]" = None

    @property
    def actions(self) -> List[Dict[Symbol, Action]]:
        """``actions[state][terminal]``: the ACTION rows keyed by Symbol."""
        if self._actions is None:
            terminals = self.grammar.ids.terminals
            width = len(terminals)
            codes = self.action_codes
            decode = ActionDecoder().decode
            self._actions = [
                {
                    terminals[tid]: decode(codes[base + tid])
                    for tid in range(width)
                    if codes[base + tid] != ACTION_ERROR
                }
                for base in range(0, len(codes), width)
            ]
        return self._actions

    @property
    def gotos(self) -> List[Dict[Symbol, int]]:
        """``gotos[state][nonterminal]``: the GOTO rows keyed by Symbol."""
        if self._gotos is None:
            nonterminals = self.grammar.ids.nonterminals
            width = len(nonterminals)
            codes = self.goto_codes
            self._gotos = [
                {
                    nonterminals[nt]: codes[base + nt]
                    for nt in range(width)
                    if codes[base + nt] >= 0
                }
                for base in range(0, len(codes), width)
            ]
        return self._gotos

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
        action_codes, goto_codes = self.action_codes, self.goto_codes
        return (len(action_codes) - action_codes.count(ACTION_ERROR)) + (
            len(goto_codes) - goto_codes.count(-1)
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
