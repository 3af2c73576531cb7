"""Random grammar generation for property-based testing.

The equivalence property at the heart of the reproduction —
``LA_DP == LA_merge == LA_propagation`` on *every* grammar — needs a
supply of structurally diverse grammars: nullable-rich, recursive,
conflicted, boundary-line.  :func:`random_grammar` produces reduced
grammars from a seed; hypothesis drives the seed and the shape knobs.

Generated grammars are **not** filtered for LALR-ness: the lookahead
methods must agree on conflicted grammars too (conflicts are data, not
errors, at the lookahead level).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..grammar.builder import GrammarBuilder
from ..grammar.errors import GrammarValidationError
from ..grammar.grammar import Grammar
from ..grammar.transforms import reduce_grammar


#: Retry budget: shapes this small virtually always reduce within a few
#: tries; degenerate knob settings exhaust it and raise instead of looping.
_MAX_ATTEMPTS = 64


def _validate_knobs(
    n_nonterminals: int,
    n_terminals: int,
    max_alternatives: int,
    max_rhs_len: int,
    epsilon_weight: float,
) -> None:
    """Reject knob values for which no sample could ever be a grammar.

    Degenerate-but-meaningful settings (``n_terminals=1``,
    ``max_rhs_len=1``, ``epsilon_weight=1.0``) stay legal — they produce
    boundary-shaped grammars the fuzzer wants; only structurally
    impossible ones raise.
    """
    if n_nonterminals < 1:
        raise ValueError(f"n_nonterminals must be >= 1, got {n_nonterminals}")
    if n_terminals < 1:
        raise ValueError(f"n_terminals must be >= 1, got {n_terminals}")
    if max_alternatives < 1:
        raise ValueError(f"max_alternatives must be >= 1, got {max_alternatives}")
    if max_rhs_len < 1:
        raise ValueError(f"max_rhs_len must be >= 1, got {max_rhs_len}")
    if not 0.0 <= epsilon_weight <= 1.0:
        raise ValueError(
            f"epsilon_weight must be within [0.0, 1.0], got {epsilon_weight}"
        )


def random_grammar(
    seed: int,
    n_nonterminals: int = 4,
    n_terminals: int = 4,
    max_alternatives: int = 3,
    max_rhs_len: int = 4,
    epsilon_weight: float = 0.15,
    name: str = "",
) -> Grammar:
    """A random *reduced* grammar derived deterministically from *seed*.

    The raw sample may contain useless symbols or generate the empty
    language; generation retries with perturbed sub-seeds until reduction
    succeeds.  The retry loop is bounded: when a knob combination cannot
    produce a reduced grammar, the error names the seed and the knobs so
    the draw is reproducible (campaign drivers depend on this).

    Raises:
        ValueError: On structurally impossible knob values.
        GrammarValidationError: When the bounded retry loop exhausts.
    """
    _validate_knobs(
        n_nonterminals, n_terminals, max_alternatives, max_rhs_len, epsilon_weight
    )
    for attempt in range(_MAX_ATTEMPTS):
        grammar = _sample(
            random.Random(seed * 1_000_003 + attempt),
            n_nonterminals,
            n_terminals,
            max_alternatives,
            max_rhs_len,
            epsilon_weight,
            name or f"random_{seed}",
        )
        if grammar is None:
            continue
        try:
            return reduce_grammar(grammar)
        except GrammarValidationError:
            continue
    knobs = (
        f"n_nonterminals={n_nonterminals}, n_terminals={n_terminals}, "
        f"max_alternatives={max_alternatives}, max_rhs_len={max_rhs_len}, "
        f"epsilon_weight={epsilon_weight}"
    )
    raise GrammarValidationError(
        f"could not generate a reduced grammar from seed {seed} "
        f"within {_MAX_ATTEMPTS} attempts ({knobs})"
    )


def _sample(
    rng: random.Random,
    n_nonterminals: int,
    n_terminals: int,
    max_alternatives: int,
    max_rhs_len: int,
    epsilon_weight: float,
    name: str,
) -> Optional[Grammar]:
    nonterminals = [f"N{i}" for i in range(n_nonterminals)]
    terminals = [f"t{i}" for i in range(n_terminals)]
    builder = GrammarBuilder(name)

    made_any = False
    for lhs in nonterminals:
        alternatives = rng.randint(1, max_alternatives)
        for _ in range(alternatives):
            if rng.random() < epsilon_weight:
                builder.rule(lhs, [])
                made_any = True
                continue
            length = rng.randint(1, max_rhs_len)
            rhs: List[str] = []
            for _ in range(length):
                # Bias toward terminals so most nonterminals are generating.
                if rng.random() < 0.55:
                    rhs.append(rng.choice(terminals))
                else:
                    rhs.append(rng.choice(nonterminals))
            builder.rule(lhs, rhs)
            made_any = True
    if not made_any:
        return None
    try:
        return builder.build(start=nonterminals[0])
    except GrammarValidationError:
        return None


def random_grammar_batch(
    count: int, base_seed: int = 0, **knobs
) -> "List[Grammar]":
    """*count* random grammars with consecutive seeds (benchmark workload)."""
    return [random_grammar(base_seed + i, **knobs) for i in range(count)]


def random_token_stream(
    grammar: Grammar, seed: int, length_budget: int
) -> "Tuple[List, bool]":
    """A (tokens, is_valid) pair: half the time a valid sentence, half the
    time a mutated (likely-invalid) one — fuzz food for the parser engine."""
    from ..analysis.derive import SentenceGenerator

    rng = random.Random(seed)
    sentence = SentenceGenerator(grammar, seed=seed).sentence(budget=length_budget)
    if rng.random() < 0.5 or not sentence:
        return sentence, True
    mutated = list(sentence)
    # Never inject the reserved end marker: the engines reject it as an
    # unknown terminal, so the mutant would test token resolution
    # instead of the parse.
    terminals = [t for t in grammar.terminals if not t.is_eof]
    mutation = rng.choice(("drop", "swap", "insert"))
    index = rng.randrange(len(mutated))
    if mutation == "drop":
        del mutated[index]
    elif mutation == "swap":
        mutated[index] = rng.choice(terminals)
    else:
        mutated.insert(index, rng.choice(terminals))
    # The mutation may accidentally still be a sentence; the caller must
    # re-check validity with a trusted parser when it matters.
    return mutated, False
