"""A textbook LR driver over any ``action(state, terminal)`` lookup.

The reference for default-reduction compression: run over a
:class:`~repro.tables.compress.CompressedTable` (a row default stands in
for every missing cell) and over its source
:class:`~repro.tables.table.ParseTable`, it shows the Bison contract —
the same parses, and an error detected at the same input position,
possibly after a few extra reductions but never after an extra shift.
"""

from __future__ import annotations


def classic_run(lookup, table, tokens, max_steps=100_000):
    """``("accept", reductions)`` or ``("error", position)`` for *tokens*
    (terminal names or Symbols), taking actions from ``lookup.action``
    and GOTO targets from *table*."""
    grammar = table.grammar
    stream = [
        grammar.symbols[token] if isinstance(token, str) else token
        for token in tokens
    ]
    stream.append(grammar.eof)
    stack = [0]
    position = 0
    reductions = []
    for _ in range(max_steps):
        action = lookup.action(stack[-1], stream[position])
        if action is None:
            return ("error", position)
        if action.kind == "shift":
            stack.append(action.state)
            position += 1
        elif action.kind == "reduce":
            production = grammar.productions[action.production]
            if production.rhs:
                del stack[-len(production.rhs):]
            target = table.goto(stack[-1], production.lhs)
            if target is None:
                return ("error", position)
            stack.append(target)
            reductions.append(action.production)
        else:
            return ("accept", reductions)
    raise AssertionError("the classic driver did not terminate")
