"""Productions (rewrite rules) of a context-free grammar."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .errors import ProductionError
from .symbols import Symbol


class Production:
    """A single rewrite rule ``lhs -> rhs[0] rhs[1] ... rhs[n-1]``.

    Productions are immutable.  ``index`` is the production's position in
    its grammar's production list; index 0 is reserved for the augmented
    start production once the grammar has been augmented.

    Attributes:
        index: Dense index in the owning grammar.
        lhs: Left-hand-side nonterminal.
        rhs: Tuple of symbols; empty tuple for an epsilon production.
        prec_symbol: Terminal whose precedence governs this production for
            conflict resolution (explicit ``%prec`` or the rightmost
            terminal of the rhs); None when no precedence applies.
        lhs_sid / rhs_sids: Dense symbol IDs mirroring ``lhs``/``rhs``,
            bound by the owning :class:`~repro.grammar.grammar.Grammar`
            at construction (see :meth:`bind_ids`); the integer core
            walks ``rhs_sids`` (an ``array('i')``) instead of hashing
            the Symbol views.
        ids: The :class:`~repro.grammar.symbols.SymbolIds` layout the
            two mirrors were bound under (None until bound).
        fragment: The rule's JSON fragment, filled on first use by
            :mod:`repro.grammar.fingerprint` (None until then).
    """

    __slots__ = (
        "index", "lhs", "rhs", "prec_symbol", "lhs_sid", "rhs_sids", "ids", "fragment",
    )

    def __init__(
        self,
        index: int,
        lhs: Symbol,
        rhs: Sequence[Symbol],
        prec_symbol: Optional[Symbol] = None,
    ):
        if lhs.is_terminal:
            raise ProductionError(f"left-hand side {lhs.name!r} must be a nonterminal")
        self.index = index
        self.lhs = lhs
        self.rhs: Tuple[Symbol, ...] = tuple(rhs)
        if prec_symbol is None:
            prec_symbol = self._rightmost_terminal(self.rhs)
        self.prec_symbol = prec_symbol
        # Filled by the owning Grammar (bind_ids); -1 marks "unbound".
        self.lhs_sid: int = -1
        self.rhs_sids: Sequence[int] = ()
        self.ids = None
        self.fragment: Optional[str] = None

    def bind_ids(self, ids) -> None:
        """Record the dense-ID mirror of lhs/rhs under *ids* (a
        :class:`~repro.grammar.symbols.SymbolIds`).  Called by the owning
        grammar for productions not yet bound to any layout.  Grammars
        share a production only under one layout (the constructor copies
        a production bound to another layout), so a shared production is
        never re-bound."""
        self.lhs_sid = ids.sid(self.lhs)
        self.rhs_sids = ids.sids(self.rhs)
        self.ids = ids

    @staticmethod
    def _rightmost_terminal(rhs: Tuple[Symbol, ...]) -> Optional[Symbol]:
        for symbol in reversed(rhs):
            if symbol.is_terminal:
                return symbol
        return None

    def __len__(self) -> int:
        return len(self.rhs)

    @property
    def is_epsilon(self) -> bool:
        return not self.rhs

    def __repr__(self) -> str:
        return f"Production({self.index}, {self})"

    def __str__(self) -> str:
        rhs = " ".join(s.name for s in self.rhs) if self.rhs else "%empty"
        return f"{self.lhs.name} -> {rhs}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Production):
            return NotImplemented
        return self.index == other.index and self.lhs is other.lhs and self.rhs == other.rhs

    def __hash__(self) -> int:
        return hash((self.index, id(self.lhs), tuple(id(s) for s in self.rhs)))
