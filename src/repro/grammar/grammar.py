"""The :class:`Grammar` container and grammar augmentation.

A :class:`Grammar` owns a :class:`~repro.grammar.symbols.SymbolTable`, an
ordered list of :class:`~repro.grammar.production.Production` objects, a
start symbol, and optional operator-precedence declarations.

LR constructions in this library always operate on an *augmented* grammar:
one whose production 0 is ``S' -> S $end`` for a fresh ``S'``.  Appending
the explicit end marker (the paper's ``⊣``) to the start production is the
formulation DeRemer & Pennello use; it makes end-of-input an ordinary
directly-read terminal, so no special-casing is needed anywhere in the
look-ahead machinery.
"""

from __future__ import annotations

import enum
import functools
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import GrammarValidationError, ProductionError
from .production import Production
from .symbols import EOF_NAME, Symbol, SymbolIds, SymbolTable

#: Serialises first augmentations: one grammar never mints two start symbols.
_AUGMENT_LOCK = threading.Lock()


class Assoc(enum.Enum):
    """Operator associativity for precedence-based conflict resolution."""

    LEFT = "left"
    RIGHT = "right"
    NONASSOC = "nonassoc"


class Precedence:
    """Precedence level and associativity attached to a terminal."""

    __slots__ = ("level", "assoc")

    def __init__(self, level: int, assoc: Assoc):
        self.level = level
        self.assoc = assoc

    def __repr__(self) -> str:
        return f"Precedence(level={self.level}, assoc={self.assoc.value})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Precedence):
            return NotImplemented
        return self.level == other.level and self.assoc == other.assoc

    def __hash__(self) -> int:
        # Must stay consistent with __eq__ (defining __eq__ alone would
        # set __hash__ = None and make Precedence unusable in sets/dicts).
        return hash((self.level, self.assoc))


def _layout(symbols: SymbolTable, productions: Sequence[Production]) -> SymbolIds:
    """The layout of the first bound production when it is still current
    for *symbols*, else a fresh snapshot.

    A Symbol belongs to exactly one table and tables only grow, so a
    layout that holds a symbol of *symbols* and has as many symbols as
    *symbols* is the snapshot :class:`SymbolIds` would take now.
    """
    for production in productions:
        ids = production.ids
        if ids is not None:
            lhs = production.lhs
            if ids.num_symbols == len(symbols) and symbols.get(lhs.name) is lhs:
                return ids
            break
    return SymbolIds(symbols)


class Grammar:
    """An immutable-after-construction context-free grammar.

    Build instances with :class:`~repro.grammar.builder.GrammarBuilder` or
    :func:`~repro.grammar.reader.load_grammar`; the constructor here expects
    fully formed parts and validates their consistency.
    """

    def __init__(
        self,
        symbols: SymbolTable,
        productions: Sequence[Production],
        start: Symbol,
        precedence: Optional[Dict[Symbol, Precedence]] = None,
        name: str = "",
    ):
        if start.is_terminal:
            raise GrammarValidationError(f"start symbol {start.name!r} must be a nonterminal")
        if not productions:
            raise GrammarValidationError("grammar has no productions")
        self.symbols = symbols
        self.start = start
        self.precedence: Dict[Symbol, Precedence] = dict(precedence or {})
        self.name = name

        # Dense-ID layout snapshot (terminals 0..T-1, nonterminals
        # T..T+N-1) and the productions' ID mirrors.  Everything inside
        # the LR pipeline runs on these ints; Symbols only re-enter at
        # the public API boundary.  Productions already bound to the
        # layout were validated and bound by the grammar they come from
        # and are shared; one bound to another layout belongs to another
        # grammar and is copied, never re-bound.
        self.ids = ids = _layout(symbols, productions)
        self.productions: Tuple[Production, ...] = tuple(
            p if p.ids is None or p.ids is ids
            else Production(p.index, p.lhs, p.rhs, p.prec_symbol)
            for p in productions
        )
        unbound = [p for p in self.productions if p.ids is None]
        self._validate(unbound)
        for production in unbound:
            production.bind_ids(ids)

        # Index: nonterminal -> its productions, in declaration order.
        self._by_lhs: Dict[Symbol, List[Production]] = {nt: [] for nt in ids.nonterminals}
        for production in self.productions:
            self._by_lhs[production.lhs].append(production)
        # nt_id -> productions, the int-indexed twin of _by_lhs.
        self._by_lhs_ntid: List[List[Production]] = [
            self._by_lhs[nt] for nt in self.ids.nonterminals
        ]

    def _validate(self, productions: Sequence[Production]) -> None:
        table_symbols = set(self.symbols) if productions else ()
        for production in productions:
            if production.lhs not in table_symbols:
                raise ProductionError(f"production {production}: lhs not in symbol table")
            for symbol in production.rhs:
                if symbol not in table_symbols:
                    raise ProductionError(
                        f"production {production}: rhs symbol {symbol.name!r} not in symbol table"
                    )
        if self.symbols.get(self.start.name) is not self.start:
            raise GrammarValidationError(f"start symbol {self.start.name!r} not in symbol table")

    # -- basic accessors ---------------------------------------------------

    @property
    def terminals(self) -> List[Symbol]:
        return self.symbols.terminals

    @property
    def nonterminals(self) -> List[Symbol]:
        return self.symbols.nonterminals

    def productions_for(self, nonterminal: Symbol) -> List[Production]:
        """All productions whose left-hand side is *nonterminal*."""
        return self._by_lhs.get(nonterminal, [])

    def productions_for_ntid(self, nt_id: int) -> List[Production]:
        """All productions for the nonterminal with dense ID *nt_id*."""
        return self._by_lhs_ntid[nt_id]

    def __iter__(self):
        return iter(self.productions)

    def __len__(self) -> int:
        return len(self.productions)

    def __str__(self) -> str:
        lines = [f"start: {self.start.name}"]
        lines.extend(str(p) for p in self.productions)
        return "\n".join(lines)

    # -- augmentation ------------------------------------------------------

    @functools.cached_property
    def is_augmented(self) -> bool:
        """True if production 0 is ``S' -> S $end`` with S' used nowhere else."""
        if EOF_NAME not in self.symbols:
            return False
        p0 = self.productions[0]
        eof = self.symbols[EOF_NAME]
        if len(p0.rhs) != 2 or p0.rhs[1] is not eof:
            return False
        aug = p0.lhs
        if any(p.lhs is aug for p in self.productions[1:]):
            return False
        if any(aug in p.rhs for p in self.productions):
            return False
        return self.start is aug

    @property
    def eof(self) -> Symbol:
        """The end-of-input terminal (only defined on augmented grammars)."""
        return self.symbols[EOF_NAME]

    @property
    def original_start(self) -> Symbol:
        """The user's start symbol (before augmentation, if any)."""
        if self.is_augmented:
            return self.productions[0].rhs[0]
        return self.start

    def augmented(self) -> "Grammar":
        """Return the augmented copy of this grammar (self if already augmented).

        Adds a fresh start symbol ``S'``, the end marker ``$end``, and the
        production ``S' -> S $end`` at index 0.  All existing Symbol objects
        are shared; production indices shift by one.

        The copy is made once and cached on the instance: augmentation
        mints its start symbol in the shared symbol table, so a second
        copy would be a different grammar (``S''``, another fingerprint).
        """
        cached = self.__dict__.get("_augmented")
        if cached is not None:
            return cached
        if self.is_augmented:
            return self
        with _AUGMENT_LOCK:
            if "_augmented" not in self.__dict__:
                aug_start = self.symbols.fresh_nonterminal(self.start.name)
                eof = self.symbols.terminal(EOF_NAME)
                productions = [Production(0, aug_start, (self.start, eof))] + [
                    Production(i, p.lhs, p.rhs, p.prec_symbol)
                    for i, p in enumerate(self.productions, start=1)
                ]
                self._augmented = Grammar(
                    self.symbols, productions, aug_start, self.precedence, self.name
                )
        return self._augmented

    # -- convenience -------------------------------------------------------

    def production_set(self) -> "set[Tuple[Symbol, Tuple[Symbol, ...]]]":
        """The set of (lhs, rhs) pairs, ignoring indices — for equality checks."""
        return {(p.lhs, p.rhs) for p in self.productions}

    def stats(self) -> Dict[str, int]:
        """Headline size statistics used throughout the benchmark harness."""
        return {
            "terminals": len(self.terminals),
            "nonterminals": len(self.nonterminals),
            "productions": len(self.productions),
            "rhs_symbols": sum(len(p.rhs) for p in self.productions),
        }
