"""LR items.

An **LR(0) item** is a production with a dot position: ``A -> alpha . beta``.
We represent it compactly as ``Item(production_index, dot)`` — production
objects are looked up through the grammar, keeping items hashable, tiny and
cheap to copy into kernels.

An **LR(1) item** additionally carries one lookahead terminal:
``Item1(production_index, dot, lookahead)``.
"""

from __future__ import annotations

from typing import NamedTuple

from ..grammar.grammar import Grammar
from ..grammar.production import Production
from ..grammar.symbols import Symbol


class Item(NamedTuple):
    """LR(0) item: dot position ``dot`` within production ``production``."""

    production: int
    dot: int

    def advanced(self) -> "Item":
        """The item with the dot moved one symbol to the right."""
        return Item(self.production, self.dot + 1)


class Item1(NamedTuple):
    """LR(1) item: an LR(0) core plus a single lookahead terminal."""

    production: int
    dot: int
    lookahead: Symbol

    @property
    def core(self) -> Item:
        """The LR(0) item underneath (lookahead dropped)."""
        return Item(self.production, self.dot)

    def advanced(self) -> "Item1":
        """The item with the dot moved one symbol to the right."""
        return Item1(self.production, self.dot + 1, self.lookahead)


def item_production(grammar: Grammar, item: "Item | Item1") -> Production:
    """The production an item's index refers to."""
    return grammar.productions[item.production]


def next_symbol(grammar: Grammar, item: "Item | Item1") -> "Symbol | None":
    """The symbol immediately after the dot, or None for a final item."""
    production = grammar.productions[item.production]
    if item.dot < len(production.rhs):
        return production.rhs[item.dot]
    return None


def is_final(grammar: Grammar, item: "Item | Item1") -> bool:
    """True when the dot is at the end: the item calls for a reduction."""
    return item.dot >= len(grammar.productions[item.production].rhs)


def format_item(grammar: Grammar, item: "Item | Item1") -> str:
    """Human-readable rendering: ``A -> alpha . beta [, lookahead]``."""
    production = grammar.productions[item.production]
    parts = [s.name for s in production.rhs]
    parts.insert(item.dot, "·")
    body = " ".join(parts) if parts else "·"
    text = f"{production.lhs.name} -> {body}"
    if isinstance(item, Item1):
        text += f", {item.lookahead.name}"
    return text
