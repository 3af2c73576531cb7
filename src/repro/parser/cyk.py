"""The CYK recogniser — an LR-independent membership oracle.

Cocke–Younger–Kasami dynamic programming over a Chomsky-normal-form
conversion of the grammar.  O(n³·|G|) and completely indifferent to
ambiguity or LR-class, which is exactly what makes it the right oracle
for cross-validating the LR engine: on any grammar, for any string,
``CykRecognizer.accepts`` is ground truth.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..grammar.cnf import to_cnf
from ..grammar.grammar import Grammar
from ..grammar.symbols import Symbol


class CykRecognizer:
    """Membership testing for L(G) via CYK on the CNF conversion."""

    def __init__(self, grammar: Grammar):
        if grammar.is_augmented:
            raise ValueError("pass the user grammar, not its augmented form")
        self.source_grammar = grammar
        converted = to_cnf(grammar)
        self.cnf = converted.grammar
        self.accepts_epsilon = converted.accepts_epsilon
        self.start = self.cnf.start if self.cnf is not None else None

        # Indexed rule forms for the DP.
        self._by_terminal_name: Dict[str, List[Symbol]] = {}
        self._by_pair: Dict[Tuple[Symbol, Symbol], List[Symbol]] = {}
        for production in (self.cnf.productions if self.cnf is not None else ()):
            rhs = production.rhs
            if len(rhs) == 1:
                self._by_terminal_name.setdefault(rhs[0].name, []).append(
                    production.lhs
                )
            else:
                self._by_pair.setdefault((rhs[0], rhs[1]), []).append(
                    production.lhs
                )

    def accepts(self, tokens: "Sequence[Symbol | str]", budget=None) -> bool:
        """True iff the token sequence is in L(G).

        Tokens may be Symbols (from any table — matching is by name) or
        bare terminal names.  Unknown names are simply never derivable,
        so they yield False rather than an error.

        The optional cooperative :class:`~repro.core.budget.Budget` runs
        as phase ``"cyk"``: the token cap is charged while the input is
        materialised, and the O(n³) span loop checks the deadline on a
        stride — without it an MB-scale ambiguous input pins a service
        worker for minutes.
        """
        if budget is not None:
            budget.enter_phase("cyk")
        try:
            names: List[str] = []
            for t in tokens:
                if budget is not None:
                    budget.charge_tokens(1)
                names.append(t if isinstance(t, str) else t.name)
            n = len(names)
            if n == 0:
                return self.accepts_epsilon
            if self.cnf is None:  # L(G) ⊆ {ε}: no non-empty sentence exists
                return False

            # chart[i][j] = nonterminals deriving names[i : i + j + 1]
            chart: List[List[Set[Symbol]]] = [
                [set() for _ in range(n - i)] for i in range(n)
            ]
            for i, name in enumerate(names):
                producers = self._by_terminal_name.get(name)
                if not producers:
                    return False
                chart[i][0].update(producers)

            for span in range(2, n + 1):
                for i in range(n - span + 1):
                    if budget is not None:
                        budget.tick()
                    cell = chart[i][span - 1]
                    for split in range(1, span):
                        left_set = chart[i][split - 1]
                        right_set = chart[i + split][span - split - 1]
                        if not left_set or not right_set:
                            continue
                        for left in left_set:
                            for right in right_set:
                                producers = self._by_pair.get((left, right))
                                if producers:
                                    cell.update(producers)
            return self.start in chart[0][n - 1]
        finally:
            if budget is not None:
                budget.publish()
