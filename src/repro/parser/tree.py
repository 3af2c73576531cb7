"""Parse trees produced by the LR engine.

Trees can be as deep as the input is long (``S -> a S | a`` nests one
level per token), so the traversals (``leaves``, ``walk``,
``derivation``, ``format``, ``sexpr`` and ``==``) run on explicit stacks
and do not recurse, whatever the depth.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..grammar.production import Production
from ..grammar.symbols import Symbol


class Node:
    """A parse-tree node.

    Leaves wrap a shifted terminal (and the token's semantic *value*, when
    the token stream supplied one).  Interior nodes wrap the production
    used for the reduction and the children in left-to-right order.
    """

    __slots__ = ("symbol", "children", "value", "production")

    def __init__(
        self,
        symbol: Symbol,
        children: "Optional[List[Node]]" = None,
        value: object = None,
        production: Optional[Production] = None,
    ):
        self.symbol = symbol
        self.children: List[Node] = children if children is not None else []
        self.value = value
        self.production = production

    @property
    def is_leaf(self) -> bool:
        """True for terminal (token) nodes."""
        return self.symbol.is_terminal

    def leaves(self) -> "Iterator[Node]":
        """Left-to-right terminal leaves (the fringe)."""
        stack = [self]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.extend(reversed(node.children))

    def fringe(self) -> List[Symbol]:
        """The terminal symbols of the fringe — re-derives the input."""
        return [leaf.symbol for leaf in self.leaves()]

    def walk(self) -> "Iterator[Node]":
        """Pre-order traversal of all nodes."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def derivation(self) -> List[Production]:
        """The rightmost derivation (in forward order) this tree encodes."""
        out: List[Production] = []
        # Pre-order: the rightmost derivation expands the rightmost
        # nonterminal first.
        for node in self.walk():
            if not node.is_leaf:
                assert node.production is not None
                out.append(node.production)
        return out

    def format(self, indent: str = "") -> str:
        """Multi-line indented rendering."""
        lines: List[str] = []
        stack = [(self, indent)]
        while stack:
            node, pad = stack.pop()
            if node.is_leaf:
                label = node.symbol.name
                if node.value is not None and str(node.value) != label:
                    label += f" ({node.value!r})"
                lines.append(f"{pad}{label}")
            else:
                lines.append(f"{pad}{node.symbol.name}")
                pad += "  "
                stack.extend((child, pad) for child in reversed(node.children))
        return "\n".join(lines)

    def sexpr(self) -> str:
        """Compact s-expression rendering, handy in tests."""
        # Post-order: a node's rendering is assembled once its children's
        # are on top of *done*.
        done: List[str] = []
        stack = [(self, False)]
        while stack:
            node, ready = stack.pop()
            if node.is_leaf:
                done.append(node.symbol.name)
            elif not ready:
                stack.append((node, True))
                stack.extend((child, False) for child in reversed(node.children))
            else:
                first = len(done) - len(node.children)
                inner = " ".join(done[first:])
                del done[first:]
                name = node.symbol.name
                done.append(f"({name} {inner})" if inner else f"({name})")
        return done[0]

    def __repr__(self) -> str:
        return f"Node({self.sexpr()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            ours, theirs = pairs.pop()
            if (
                ours.symbol is not theirs.symbol
                or not ours.value == theirs.value
                or len(ours.children) != len(theirs.children)
            ):
                return False
            # Shared subtrees compare equal without a walk, as the list
            # comparison this replaces let them.
            pairs.extend(
                pair for pair in zip(ours.children, theirs.children)
                if pair[0] is not pair[1]
            )
        return True

    def __hash__(self) -> int:  # pragma: no cover - trees rarely hashed
        return hash((id(self.symbol), self.value, tuple(map(hash, self.children))))


def count_nodes(node: Node) -> Tuple[int, int]:
    """(interior nodes, leaves) in the tree rooted at *node*."""
    interior = 0
    leaves = 0
    for current in node.walk():
        if current.is_leaf:
            leaves += 1
        else:
            interior += 1
    return interior, leaves
