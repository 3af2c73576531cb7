"""A table-driven LL(1) predictive parser.

The stack-machine formulation: the stack holds grammar symbols (plus the
end marker at the bottom); a terminal on top must match the lookahead, a
nonterminal is replaced by the predicted production's rhs.  Builds the
same :class:`~repro.parser.tree.Node` trees as the LR engine, so the two
drivers can be cross-checked tree-for-tree on grammars that are both
LL(1) and LALR(1).
"""

from __future__ import annotations

from typing import Iterable, List

from ..parser.engine import Token, TokenLike, normalise_token
from ..parser.errors import ParseError
from ..parser.tree import Node
from .analysis import Ll1Analysis


class LlParser:
    """Predictive parser for an LL(1)-analysed grammar."""

    def __init__(self, analysis: Ll1Analysis, allow_conflicts: bool = False):
        if analysis.conflicts and not allow_conflicts:
            raise ValueError(
                f"grammar is not LL(1): {len(analysis.conflicts)} conflict(s); "
                f"pass allow_conflicts=True to parse with first-writer-wins cells"
            )
        self.analysis = analysis
        self.grammar = analysis.grammar
        self._eof = self.grammar.eof

    def parse(self, tokens: Iterable[TokenLike]) -> Node:
        """Parse and return the tree rooted at the user's start symbol."""
        stream = [normalise_token(self.grammar, t, i) for i, t in enumerate(tokens)]
        stream.append(Token(self._eof, None))
        position = 0

        root = Node(self.grammar.original_start)
        # Stack of (symbol, node-to-fill); nonterminal nodes get children
        # appended in place as predictions expand.
        stack: List = [(self._eof, None), (root.symbol, root)]

        while stack:
            symbol, node = stack.pop()
            token = stream[position]
            if symbol.is_terminal:
                if token.symbol is not symbol:
                    raise self._error(position, token, expected=[symbol])
                if node is not None:
                    node.value = token.value
                position += 1
                continue
            production = self.analysis.production_for(symbol, token.symbol)
            if production is None:
                expected = sorted(
                    self.analysis.table.get(symbol, {}), key=lambda s: s.name
                )
                raise self._error(position, token, expected)
            node.production = production
            children = [Node(s) for s in production.rhs]
            node.children = children
            for child in reversed(children):
                stack.append((child.symbol, child))
        if position != len(stream):
            raise self._error(position, stream[position], expected=[])
        return root

    def accepts(self, tokens: Iterable[TokenLike]) -> bool:
        try:
            self.parse(tokens)
        except ParseError:
            return False
        return True

    def _error(self, position: int, token: Token, expected) -> ParseError:
        names = ", ".join(t.name for t in expected) or "<nothing>"
        what = token.symbol.name if token.symbol is not self._eof else "end of input"
        return ParseError(
            f"LL(1) syntax error at position {position}: unexpected {what}; "
            f"expected one of: {names}",
            position,
            token.symbol,
            state=-1,
            expected=list(expected),
        )
