"""Grammar symbols: terminals, nonterminals, and the reserved markers.

Symbols are interned per :class:`SymbolTable`: within one grammar, each
distinct name maps to exactly one :class:`Symbol` object, so identity
comparison (`is`) and hashing are cheap and symbols can be used freely as
dict keys and set members.

Two names are reserved:

- ``EOF_NAME`` (``"$end"``) — the end-of-input marker appended by grammar
  augmentation.  It is a terminal but cannot appear in user productions.
- ``EPSILON_NAME`` (``"%empty"``) — used only by the text reader to denote
  an empty right-hand side; it never becomes a real symbol.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional

from .errors import SymbolError

EOF_NAME = "$end"
EPSILON_NAME = "%empty"
AUGMENTED_START_SUFFIX = "'"

#: Version of the dense-ID layout scheme below.  Serialised artefacts
#: (cached parse tables) mix this into their fingerprint so a change to
#: the ID assignment invalidates old caches instead of mis-decoding them.
ID_LAYOUT_VERSION = 1


class Symbol:
    """A single grammar symbol.

    Instances are created only through :class:`SymbolTable`; user code should
    never call the constructor directly.

    Attributes:
        name: The symbol's spelling, unique within its table.
        is_terminal: True for terminals (including the EOF marker).
        index: Dense index within the owning table (terminals and
            nonterminals share one index space, in declaration order).
    """

    __slots__ = ("name", "is_terminal", "index")

    def __init__(self, name: str, is_terminal: bool, index: int):
        self.name = name
        self.is_terminal = is_terminal
        self.index = index

    @property
    def is_nonterminal(self) -> bool:
        return not self.is_terminal

    @property
    def is_eof(self) -> bool:
        return self.name == EOF_NAME

    def __repr__(self) -> str:
        kind = "t" if self.is_terminal else "nt"
        return f"Symbol({self.name!r}, {kind})"

    def __str__(self) -> str:
        return self.name

    # Identity semantics: symbols are interned, so object identity is
    # equality.  We still define __lt__ for deterministic sorting in output.
    def __lt__(self, other: "Symbol") -> bool:
        if not isinstance(other, Symbol):
            return NotImplemented
        return (self.is_terminal, self.name) < (other.is_terminal, other.name)


class SymbolTable:
    """Interning table for the symbols of one grammar."""

    def __init__(self) -> None:
        self._by_name: Dict[str, Symbol] = {}
        self._in_order: List[Symbol] = []

    def __len__(self) -> int:
        return len(self._in_order)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._in_order)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> Optional[Symbol]:
        """Return the symbol named *name*, or None if absent."""
        return self._by_name.get(name)

    def __getitem__(self, name: str) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise SymbolError(f"unknown symbol {name!r}") from None

    def terminal(self, name: str) -> Symbol:
        """Intern *name* as a terminal and return it.

        Raises SymbolError if *name* already exists as a nonterminal.
        """
        return self._intern(name, is_terminal=True)

    def nonterminal(self, name: str) -> Symbol:
        """Intern *name* as a nonterminal and return it.

        Raises SymbolError if *name* already exists as a terminal.
        """
        return self._intern(name, is_terminal=False)

    def _intern(self, name: str, is_terminal: bool) -> Symbol:
        if not name:
            raise SymbolError("symbol name must be non-empty")
        if name == EPSILON_NAME:
            raise SymbolError(f"{EPSILON_NAME!r} is reserved for empty right-hand sides")
        existing = self._by_name.get(name)
        if existing is not None:
            if existing.is_terminal != is_terminal:
                want = "terminal" if is_terminal else "nonterminal"
                have = "terminal" if existing.is_terminal else "nonterminal"
                raise SymbolError(f"symbol {name!r} is a {have}, cannot redeclare as {want}")
            return existing
        symbol = Symbol(name, is_terminal, len(self._in_order))
        self._by_name[name] = symbol
        self._in_order.append(symbol)
        return symbol

    @property
    def terminals(self) -> List[Symbol]:
        return [s for s in self._in_order if s.is_terminal]

    @property
    def nonterminals(self) -> List[Symbol]:
        return [s for s in self._in_order if s.is_nonterminal]

    def fresh_nonterminal(self, base: str) -> Symbol:
        """Intern a nonterminal with a name derived from *base* that does not
        collide with any existing symbol (used by grammar augmentation and
        transforms)."""
        candidate = base + AUGMENTED_START_SUFFIX
        while candidate in self._by_name:
            candidate += AUGMENTED_START_SUFFIX
        return self.nonterminal(candidate)


class SymbolIds:
    """Dense integer IDs for one grammar's symbols — the integer core.

    The hot paths of the DeRemer–Pennello pipeline (LR(0) construction,
    relation building, the Digraph passes, table fill, the parse engine)
    index flat arrays by these IDs instead of hashing :class:`Symbol`
    objects.  The layout (``ID_LAYOUT_VERSION`` 1) is:

    - terminals get ``0 .. num_terminals-1`` (symbol-table order), so a
      terminal's ID doubles as its bit position in the terminal bitmask
      vocabulary (:mod:`repro.core.bitset`);
    - nonterminals get ``num_terminals .. num_symbols-1`` (symbol-table
      order); ``nt_id = sid - num_terminals`` is the dense *nonterminal
      id* used for packed nonterminal-transition encodings
      (``state_id * num_nonterminals + nt_id``).

    A layout is a snapshot taken at :class:`~repro.grammar.grammar.Grammar`
    construction: symbols interned into the shared table afterwards (e.g.
    by augmenting a copy) are simply absent from it.  Symbols re-enter at
    the public API boundary only; everything in between is ints.
    """

    __slots__ = (
        "terminals",
        "nonterminals",
        "num_terminals",
        "num_nonterminals",
        "num_symbols",
        "by_sid",
        "_sid_of",
        "_declaration_order",
    )

    def __init__(self, symbols: Iterable[Symbol]):
        self.terminals: List[Symbol] = []
        self.nonterminals: List[Symbol] = []
        for symbol in symbols:
            (self.terminals if symbol.is_terminal else self.nonterminals).append(symbol)
        self.num_terminals = len(self.terminals)
        self.num_nonterminals = len(self.nonterminals)
        self.num_symbols = self.num_terminals + self.num_nonterminals
        #: sid -> Symbol (terminals first, then nonterminals).
        self.by_sid: List[Symbol] = self.terminals + self.nonterminals
        self._sid_of: Dict[Symbol, int] = {
            symbol: sid for sid, symbol in enumerate(self.by_sid)
        }
        self._declaration_order: "Optional[array]" = None

    def __len__(self) -> int:
        return self.num_symbols

    # -- Symbol -> id (the API boundary pays one hash here, once) ------

    def sid(self, symbol: Symbol) -> int:
        """The dense symbol ID of *symbol* (raises KeyError if absent)."""
        return self._sid_of[symbol]

    def sid_or_none(self, symbol: Symbol) -> Optional[int]:
        """Like :meth:`sid` but None for symbols outside this layout."""
        return self._sid_of.get(symbol)

    def terminal_id(self, terminal: Symbol) -> int:
        """The terminal ID (== sid, by layout) of *terminal*."""
        sid = self._sid_of[terminal]
        if sid >= self.num_terminals:
            raise SymbolError(f"{terminal.name!r} is not a terminal of this layout")
        return sid

    def nonterminal_id(self, nonterminal: Symbol) -> int:
        """The dense nonterminal ID (``sid - num_terminals``)."""
        sid = self._sid_of[nonterminal]
        if sid < self.num_terminals:
            raise SymbolError(f"{nonterminal.name!r} is not a nonterminal of this layout")
        return sid - self.num_terminals

    def sids(self, symbols: Iterable[Symbol]) -> "array":
        """The ID array for a symbol sequence (production right-hand sides)."""
        sid_of = self._sid_of
        return array("i", [sid_of[s] for s in symbols])

    # -- id -> Symbol ---------------------------------------------------

    def symbol(self, sid: int) -> Symbol:
        """The symbol with dense ID *sid*."""
        return self.by_sid[sid]

    def terminal(self, terminal_id: int) -> Symbol:
        return self.terminals[terminal_id]

    def nonterminal(self, nt_id: int) -> Symbol:
        return self.nonterminals[nt_id]

    # -- misc -----------------------------------------------------------

    def declaration_order(self) -> "array":
        """``order[sid]`` = the symbol's table declaration index — used to
        keep deterministic orderings identical to the Symbol-keyed era.

        Built once per layout and shared (callers only read it): the
        incremental splice asks for it once per dirty state."""
        order = self._declaration_order
        if order is None:
            order = array("i", [symbol.index for symbol in self.by_sid])
            self._declaration_order = order
        return order
