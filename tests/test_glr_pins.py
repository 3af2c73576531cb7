"""Literal pins of the GLR engine's work and answers.

Recorded from the engine that read ``Action`` objects, before it moved to
the per-cell code tuples of :mod:`repro.tables.nondet`.  Any change to
the worklist order, the GSS or SPPF sharing, family deduplication or
Farshi re-reduction moves one of these numbers:

- all seven ``ParseForest.stats`` counters (``worklist_pops`` too, which
  the ``glr`` bench baseline does not gate);
- ``tree_count(1000)`` and the sha256 of the first tree's ``format()``;
- the error string of one mutated input.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis import SentenceGenerator
from repro.grammar import load_grammar
from repro.grammars import corpus
from repro.parser import GlrParser, ParseError
from repro.tables import build_lalr_table

STAT_KEYS = (
    "gss_nodes",
    "gss_edges",
    "sppf_nodes",
    "sppf_families",
    "reductions",
    "shifts",
    "worklist_pops",
)


def _glr(grammar) -> GlrParser:
    return GlrParser(build_lalr_table(grammar.augmented()))


def _mini_c_stream() -> "list[str]":
    """~1k tokens of seed-2020 mini_c sentences, concatenated."""
    generator = SentenceGenerator(corpus.load("mini_c"), seed=2020)
    tokens: "list[str]" = []
    while len(tokens) < 1000:
        tokens.extend(symbol.name for symbol in generator.sentence(40))
    return tokens


def _case(name):
    if name == "mini_c":
        return _glr(corpus.load("mini_c")), _mini_c_stream()
    if name == "dangling_else":
        return (
            _glr(corpus.load("dangling_else")),
            "if if if other else other else other".split(),
        )
    if name == "catalan8":
        return _glr(load_grammar("E -> E E | a")), ["a"] * 8
    assert name == "cyclic"
    return _glr(load_grammar("S -> S S | a | %empty")), ["a"] * 3


#: name -> (gss_nodes, gss_edges, sppf_nodes, sppf_families, reductions,
#: shifts, worklist_pops), tree_count(1000), sha256 of tree().format().
PINS = {
    "mini_c": (
        (3476, 3540, 3540, 2533, 2533, 1007, 2533),
        1,
        "0c6b1a6fd4667aed643a924513a132f1e4f97a692deb6451e4028b2a5bd2c49a",
    ),
    "dangling_else": (
        (20, 24, 24, 19, 24, 8, 17),
        3,
        "d45de2e000fd596e76a7552ecb79022ad6df9db21686c6d3ecd31ea43182d9fd",
    ),
    "catalan8": (
        (24, 71, 44, 92, 139, 14, 57),
        429,
        "763d40834920642f7328849f90a76101cc0b1d72a05e94f0b154ff1fa19af264",
    ),
    "cyclic": (
        (12, 31, 13, 27, 152, 7, 37),
        2,
        "c6ae00525bbd12c532ed9627c9830d2b47fab40c2fb0a1074db5ce5f26ee175a",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_forest_pins(name):
    glr, tokens = _case(name)
    stats, trees, digest = PINS[name]
    forest = glr.parse_forest(tokens)
    assert tuple(forest.stats) == STAT_KEYS
    assert tuple(forest.stats.values()) == stats
    assert forest.tree_count(1000) == trees
    tree_text = forest.tree().format()
    assert hashlib.sha256(tree_text.encode()).hexdigest() == digest


def test_mini_c_stream_is_pinned_too():
    # If this fails, the sentence generator moved, not the engine.
    tokens = _mini_c_stream()
    assert len(tokens) == 1007
    assert hashlib.sha256(" ".join(tokens).encode()).hexdigest() == (
        "326e6e1158ddf2b87a126f9153569e12bacb8372b8d17cbf7302ed0ae2d68937"
    )


def test_mutated_mini_c_error():
    glr, tokens = _case("mini_c")
    tokens[517] = "else"
    with pytest.raises(ParseError) as info:
        glr.parse_forest(tokens)
    assert str(info.value) == (
        "syntax error at position 517: unexpected else; expected one of: "
        "!=, &&, (, ), *, +, ,, -, /, :, ;, <, =, ==, >, ?, ||"
    )
