"""Structural diffs between two grammars — what an edit actually changed.

The incremental pipeline (:mod:`repro.pipeline`) recomputes only what an
edit invalidated, so it first needs to know what *kind* of edit happened.
:func:`classify` compares two grammars and answers with a
:class:`GrammarDelta` whose ``kind`` is one of:

- ``identical`` — nothing changed (whole-pipeline reuse);
- ``rhs`` — only production right-hand sides (or their effective
  ``%prec`` symbols) changed, over an unchanged symbol layout: the only
  kind eligible for delta-scoped recomputation;
- ``add-remove`` — productions appeared, disappeared, or changed their
  left-hand side (the production index space shifted);
- ``terminal-set`` — the terminal alphabet changed (every bitmask in the
  pipeline is laid out over terminal IDs);
- ``start`` — the start symbol changed (state 0's kernel changes);
- ``precedence`` — the grammar-level precedence declarations changed
  (every conflict resolution is suspect);
- ``structural`` — anything else, notably a different symbol-ID layout
  (new symbols interned, different :class:`SymbolTable`): the grammars
  are not comparable production-by-production.

Only ``rhs`` deltas are incremental; everything else falls back to a
full rebuild (counted as ``phase.fallback`` by the session).

The edit constructors (:func:`replace_rhs`, :func:`add_production`,
:func:`remove_production`) build the *edited* grammar the session
expects: same :class:`SymbolTable`, augmentation preserved (production 0
is never touched — indices here are the augmented grammar's).  Unknown
right-hand-side names are interned as terminals, the arrow reader's
convention for names never defined.  While no symbol has been interned
since the original was built, the edited grammar shares its symbol-ID
layout and every unchanged :class:`Production` object (with its bound
IDs and cached fingerprint fragment), so an edit costs work in the rules
it changes; an edit that interns a symbol gets all-fresh productions.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence, Tuple, Union

from .grammar import Grammar
from .production import Production
from .symbols import Symbol

__all__ = [
    "DeltaKind",
    "GrammarDelta",
    "classify",
    "replace_rhs",
    "add_production",
    "remove_production",
]


class DeltaKind:
    """The edit taxonomy (string constants, not an enum, for cheap
    comparisons and readable counters/reports)."""

    IDENTICAL = "identical"
    RHS = "rhs"
    ADD_REMOVE = "add-remove"
    TERMINALS = "terminal-set"
    START = "start"
    PRECEDENCE = "precedence"
    STRUCTURAL = "structural"


class GrammarDelta:
    """The classified difference between an old and a new grammar.

    Attributes:
        kind: One of the :class:`DeltaKind` constants.
        changed: Indices of productions whose rhs or ``%prec`` changed
            (meaningful for ``rhs`` deltas; empty otherwise).
        dirty_nonterminals: The left-hand sides of the changed
            productions — the nonterminals whose closures are suspect.
        detail: One human-readable line for reports and logs.
    """

    __slots__ = ("kind", "changed", "dirty_nonterminals", "detail")

    def __init__(
        self,
        kind: str,
        changed: Tuple[int, ...] = (),
        dirty_nonterminals: FrozenSet[Symbol] = frozenset(),
        detail: str = "",
    ):
        self.kind = kind
        self.changed = changed
        self.dirty_nonterminals = dirty_nonterminals
        self.detail = detail or kind

    @property
    def is_identical(self) -> bool:
        return self.kind == DeltaKind.IDENTICAL

    @property
    def is_incremental(self) -> bool:
        """True when delta-scoped recomputation may apply (``rhs`` only)."""
        return self.kind == DeltaKind.RHS

    def __repr__(self) -> str:
        return f"GrammarDelta({self.kind!r}, changed={self.changed!r})"


def classify(old: Grammar, new: Grammar) -> GrammarDelta:
    """Classify the edit turning *old* into *new*.

    Comparison is object-level where the incremental machinery needs it
    to be: an ``rhs`` verdict guarantees the two grammars share their
    Symbol objects and dense-ID layout, so every bitmask, packed item
    and transition row of *old*'s artifacts decodes identically under
    *new*.
    """
    if old is new:
        return GrammarDelta(DeltaKind.IDENTICAL, detail="same grammar object")

    old_ids, new_ids = old.ids, new.ids
    if old_ids is not new_ids:
        if old_ids.num_terminals != new_ids.num_terminals or {
            s.name for s in old_ids.terminals
        } != {s.name for s in new_ids.terminals}:
            return GrammarDelta(
                DeltaKind.TERMINALS,
                detail=(
                    f"terminal set changed "
                    f"({old_ids.num_terminals} -> {new_ids.num_terminals} terminals)"
                ),
            )
        if old_ids.num_symbols != new_ids.num_symbols or any(
            a is not b for a, b in zip(old_ids.by_sid, new_ids.by_sid)
        ):
            return GrammarDelta(
                DeltaKind.STRUCTURAL, detail="symbol-ID layouts differ"
            )

    if old.start is not new.start:
        return GrammarDelta(
            DeltaKind.START,
            detail=f"start symbol {old.start.name!r} -> {new.start.name!r}",
        )
    if old.precedence != new.precedence:
        return GrammarDelta(
            DeltaKind.PRECEDENCE, detail="precedence declarations changed"
        )

    old_productions, new_productions = old.productions, new.productions
    # Rules shared object-for-object (the edit constructors' output) are
    # unchanged; only the others are compared.
    differing = [
        index
        for index, (p, q) in enumerate(zip(old_productions, new_productions))
        if p is not q
    ]
    if len(old_productions) != len(new_productions) or any(
        old_productions[i].lhs is not new_productions[i].lhs for i in differing
    ):
        return GrammarDelta(
            DeltaKind.ADD_REMOVE,
            detail=(
                f"production list changed "
                f"({len(old_productions)} -> {len(new_productions)} rules)"
            ),
        )

    changed = tuple(
        index
        for index in differing
        if old_productions[index].rhs != new_productions[index].rhs
        or old_productions[index].prec_symbol is not new_productions[index].prec_symbol
    )
    if not changed:
        return GrammarDelta(DeltaKind.IDENTICAL, detail="no production changed")
    dirty = frozenset(new_productions[index].lhs for index in changed)
    names = ", ".join(sorted(s.name for s in dirty))
    return GrammarDelta(
        DeltaKind.RHS,
        changed=changed,
        dirty_nonterminals=dirty,
        detail=f"{len(changed)} rhs edit(s) on {{{names}}}",
    )


# -- edit constructors -------------------------------------------------

SymbolSpec = Union[Symbol, str]


def _resolve(grammar: Grammar, spec: SymbolSpec) -> Symbol:
    if isinstance(spec, Symbol):
        return spec
    existing = grammar.symbols.get(spec)
    if existing is not None:
        return existing
    # Reader convention: a name that never appears as a left-hand side
    # is a terminal.  (Interning extends the shared SymbolTable; the new
    # grammar's layout then differs and classify() reports the edit as
    # a terminal-set delta — a full-rebuild kind, as it must be.)
    return grammar.symbols.terminal(spec)


def _rebuild(grammar: Grammar, productions: Sequence[Production]) -> Grammar:
    """A Grammar over the same symbols/start/precedence/name.

    *productions* mixes new rules with *grammar*'s own.  A rule still at
    its index is passed as is (the :class:`Grammar` constructor shares it
    when *grammar*'s layout is still current and copies it otherwise); a
    rule whose index shifted is copied here.
    """
    rules = [
        p if p.index == index else Production(index, p.lhs, p.rhs, p.prec_symbol)
        for index, p in enumerate(productions)
    ]
    return Grammar(
        grammar.symbols, rules, grammar.start, grammar.precedence, grammar.name
    )


def _check_index(grammar: Grammar, index: int, verb: str) -> None:
    if not 0 <= index < len(grammar.productions):
        raise IndexError(
            f"production index {index} out of range "
            f"(0..{len(grammar.productions) - 1})"
        )
    if grammar.is_augmented and index == 0:
        raise ValueError(f"refusing to {verb} the augmented start production")


def replace_rhs(
    grammar: Grammar,
    index: int,
    rhs: Sequence[SymbolSpec],
    prec_symbol: "Optional[SymbolSpec]" = None,
) -> Grammar:
    """A copy of *grammar* with production *index*'s rhs replaced.

    *prec_symbol* ``None`` re-derives the rightmost-terminal default for
    the new rhs (pass a symbol to pin an explicit ``%prec``).  An index
    outside ``range(len(grammar.productions))`` raises IndexError (no
    negative indexing).  Production 0 of an augmented grammar is refused
    with ValueError — editing it would break the augmentation invariant
    the whole pipeline relies on.
    """
    _check_index(grammar, index, "edit")
    productions = list(grammar.productions)
    new_rhs = tuple(_resolve(grammar, spec) for spec in rhs)
    pinned = _resolve(grammar, prec_symbol) if prec_symbol is not None else None
    productions[index] = Production(
        index, productions[index].lhs, new_rhs,
        pinned or Production._rightmost_terminal(new_rhs),
    )
    return _rebuild(grammar, productions)


def add_production(
    grammar: Grammar,
    lhs: SymbolSpec,
    rhs: Sequence[SymbolSpec],
    prec_symbol: "Optional[SymbolSpec]" = None,
) -> Grammar:
    """A copy of *grammar* with ``lhs -> rhs`` appended (an ``add-remove``
    delta: the session rebuilds from scratch for these)."""
    lhs_symbol = _resolve(grammar, lhs)
    if lhs_symbol.is_terminal:
        raise ValueError(f"left-hand side {lhs_symbol.name!r} is a terminal")
    productions = list(grammar.productions)
    new_rhs = tuple(_resolve(grammar, spec) for spec in rhs)
    pinned = _resolve(grammar, prec_symbol) if prec_symbol is not None else None
    productions.append(Production(
        len(productions), lhs_symbol, new_rhs,
        pinned or Production._rightmost_terminal(new_rhs),
    ))
    return _rebuild(grammar, productions)


def remove_production(grammar: Grammar, index: int) -> Grammar:
    """A copy of *grammar* without production *index* (``add-remove``).

    The index is checked as in :func:`replace_rhs`."""
    _check_index(grammar, index, "remove")
    productions = list(grammar.productions)
    del productions[index]
    return _rebuild(grammar, productions)
