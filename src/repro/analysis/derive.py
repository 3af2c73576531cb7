"""Sentence generation from a grammar.

Used by the parser round-trip tests ("every generated sentence must parse")
and by the throughput benchmarks (which need long, valid token streams).

The generator is budgeted: it picks random productions while a step budget
lasts, then switches to *minimal* productions — the ones with the smallest
finite terminal yield — guaranteeing termination on any reduced grammar.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from ..grammar.errors import GrammarValidationError
from ..grammar.grammar import Grammar
from ..grammar.production import Production
from ..grammar.symbols import Symbol

_INFINITY = float("inf")


def min_yield_lengths(grammar: Grammar) -> Dict[Symbol, float]:
    """For each nonterminal, the length of its shortest terminal yield
    (inf when the nonterminal generates nothing)."""
    lengths: Dict[Symbol, float] = {nt: _INFINITY for nt in grammar.nonterminals}
    changed = True
    while changed:
        changed = False
        for production in grammar.productions:
            total = 0.0
            for symbol in production.rhs:
                total += 1 if symbol.is_terminal else lengths[symbol]
                if total == _INFINITY:
                    break
            if total < lengths[production.lhs]:
                lengths[production.lhs] = total
                changed = True
    return lengths


def minimal_production_map(
    grammar: Grammar, lengths: "Dict[Symbol, float] | None" = None
) -> Dict[Symbol, Production]:
    """For each generating nonterminal, a production that (a) achieves its
    minimal terminal yield and (b) always terminates when expanded
    greedily.

    (a) alone is not enough: with a unit cycle ``A -> B; B -> A | t`` both
    ``A -> B`` and ``B -> A`` are yield-minimal, and expanding them in
    alternation loops forever.  Among the yield-minimal productions we
    therefore pick one minimising the *derivation height* ``d``, the
    fixpoint of ``d[A] = min over yield-minimal P of (1 + max d(rhs))``.
    The chosen production's rhs nonterminals all have strictly smaller
    ``d``, so greedy expansion is well-founded.
    """
    if lengths is None:
        lengths = min_yield_lengths(grammar)

    def production_yield(production: Production) -> float:
        total = 0.0
        for symbol in production.rhs:
            total += 1 if symbol.is_terminal else lengths[symbol]
        return total

    # Restrict attention to yield-minimal productions per nonterminal.
    candidates: Dict[Symbol, List[Production]] = {}
    for nonterminal in grammar.nonterminals:
        minimum = lengths[nonterminal]
        if minimum == _INFINITY:
            continue
        candidates[nonterminal] = [
            p
            for p in grammar.productions_for(nonterminal)
            if production_yield(p) == minimum
        ]

    heights: Dict[Symbol, float] = {nt: _INFINITY for nt in candidates}
    chosen: Dict[Symbol, Production] = {}
    changed = True
    while changed:
        changed = False
        for nonterminal, productions in candidates.items():
            for production in productions:
                height = 1.0
                for symbol in production.rhs:
                    if symbol.is_nonterminal:
                        height = max(height, 1 + heights[symbol])
                    if height == _INFINITY:
                        break
                if height < heights[nonterminal]:
                    heights[nonterminal] = height
                    chosen[nonterminal] = production
                    changed = True
    return chosen


class SentenceGenerator:
    """Random sentence sampler for a grammar.

    The sample space is leftmost derivations; probabilities are uniform
    over alternatives while the budget lasts.  Deterministic for a fixed
    seed.
    """

    def __init__(self, grammar: Grammar, seed: int = 0):
        self.grammar = grammar
        self.lengths = min_yield_lengths(grammar)
        if self.lengths.get(grammar.original_start, _INFINITY) == _INFINITY:
            raise GrammarValidationError("start symbol generates no terminal string")
        self._minimal = minimal_production_map(grammar, self.lengths)
        self.rng = random.Random(seed)

    def sentence(self, budget: int = 40) -> List[Symbol]:
        """Generate one sentence (list of terminals, without any end marker).

        *budget* bounds the number of free (random) expansion steps; after
        that every nonterminal is expanded minimally.
        """
        start = self.grammar.original_start
        pending: List[Symbol] = [start]
        output: List[Symbol] = []
        steps = budget
        while pending:
            symbol = pending.pop(0)
            if symbol.is_terminal:
                output.append(symbol)
                continue
            if steps > 0:
                candidates = [
                    p
                    for p in self.grammar.productions_for(symbol)
                    if self._finite(p)
                ]
                production = self.rng.choice(candidates)
                steps -= 1
            else:
                production = self._minimal[symbol]
            pending[0:0] = list(production.rhs)
        return output

    def sentences(self, count: int, budget: int = 40) -> List[List[Symbol]]:
        """Generate *count* sentences (not necessarily distinct)."""
        return [self.sentence(budget) for _ in range(count)]

    def _finite(self, production: Production) -> bool:
        return all(
            s.is_terminal or self.lengths[s] != _INFINITY for s in production.rhs
        )


def shortest_sentence(grammar: Grammar) -> List[Symbol]:
    """A deterministic shortest terminal string derivable from the start."""
    lengths = min_yield_lengths(grammar)
    start = grammar.original_start
    if lengths.get(start, _INFINITY) == _INFINITY:
        raise GrammarValidationError("start symbol generates no terminal string")
    minimal = minimal_production_map(grammar, lengths)
    pending: List[Symbol] = [start]
    output: List[Symbol] = []
    while pending:
        symbol = pending.pop(0)
        if symbol.is_terminal:
            output.append(symbol)
            continue
        pending[0:0] = list(minimal[symbol].rhs)
    return output


def leftmost_derivation(
    grammar: Grammar, choices: Sequence[int]
) -> Tuple[List[Symbol], bool]:
    """Replay a leftmost derivation given production *choices*.

    Each entry of *choices* selects (modulo the number of alternatives) the
    production used at the next leftmost nonterminal.  Once choices run
    out, minimal productions finish the derivation.  Returns the sentence
    and a flag telling whether the choice list was fully consumed.

    This gives hypothesis tests a compact, shrinkable encoding of "some
    sentence of the grammar".
    """
    lengths = min_yield_lengths(grammar)
    minimal = minimal_production_map(grammar, lengths)
    pending: List[Symbol] = [grammar.original_start]
    output: List[Symbol] = []
    used = 0
    while pending:
        symbol = pending.pop(0)
        if symbol.is_terminal:
            output.append(symbol)
            continue
        alternatives = [
            p
            for p in grammar.productions_for(symbol)
            if all(s.is_terminal or lengths[s] != _INFINITY for s in p.rhs)
        ]
        if not alternatives:
            raise GrammarValidationError(
                f"nonterminal {symbol.name!r} generates no terminal string"
            )
        if used < len(choices):
            production = alternatives[choices[used] % len(alternatives)]
            used += 1
        else:
            production = minimal[symbol]
        pending[0:0] = list(production.rhs)
    return output, used == len(choices)
