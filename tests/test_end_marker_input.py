"""The end marker is appended by every parser, never read from the input.

An input token that names the grammar's end marker used to end the
parse early: ``id $end + +`` was a sentence of ``expr``.  Both engines
now reject it, given as a name, a Symbol or a Token, with the
unknown-terminal error; generated parsers reject it like any name
outside the grammar; ``/parse`` answers it as an invalid input.
"""

from __future__ import annotations

import json
import types

import pytest

from repro.grammars import corpus
from repro.parser import GlrParser, ParseError, Parser, Token
from repro.service import Client, ServiceThread
from repro.tables import build_lalr_table
from repro.tables.codegen import STYLES, generate_parser_module

EXPR = corpus.load("expr").augmented()
TABLE = build_lalr_table(EXPR)
ERROR = "unknown terminal '$end' at position 1"


#: The end marker as a name, a Symbol and a Token.
END_MARKERS = {"name": "$end", "symbol": EXPR.eof, "token": Token(EXPR.eof, None)}

ENGINE_CALLS = {
    "lr.parse": lambda tokens: Parser(TABLE).parse(tokens),
    "lr.check": lambda tokens: Parser(TABLE).check(tokens),
    "glr.parse_forest": lambda tokens: GlrParser(TABLE).parse_forest(tokens),
}


@pytest.mark.parametrize("form", sorted(END_MARKERS))
@pytest.mark.parametrize("call", sorted(ENGINE_CALLS))
def test_engines_reject_the_end_marker(call, form):
    tokens = ["id", END_MARKERS[form], "+", "+"]
    with pytest.raises(ParseError) as info:
        ENGINE_CALLS[call](tokens)
    error = info.value
    assert str(error) == ERROR
    assert error.position == 1
    assert error.state == -1
    assert error.expected == []


@pytest.mark.parametrize("form", sorted(END_MARKERS))
def test_accepts_is_false_on_both_engines(form):
    tokens = ["id", END_MARKERS[form], "+", "+"]
    assert not Parser(TABLE).accepts(tokens)
    assert not GlrParser(TABLE).accepts(tokens)
    # The same parsers still accept the sentence the marker cut short.
    assert Parser(TABLE).accepts(["id"])
    assert GlrParser(TABLE).accepts(["id"])


def test_memoized_names_keep_rejecting():
    # The LR and GLR token memos cache only successful resolutions.
    for parser in (Parser(TABLE), GlrParser(TABLE)):
        assert parser.accepts(["id", "+", "id"])
        for _ in range(2):
            assert not parser.accepts(["id", "$end"])
            assert parser.accepts(["id"])


@pytest.mark.parametrize("style", STYLES)
def test_generated_parsers_reject_the_end_marker(style):
    module = types.ModuleType("generated_parser")
    exec(compile(generate_parser_module(TABLE, style=style), "<generated>", "exec"),
         module.__dict__)
    assert not module.accepts(["id", "$end", "+", "+"])
    assert module.accepts(["id"])
    with pytest.raises(module.SyntaxErrorLR) as info:
        module.parse([("id", 1), ("$end", None)])
    # Rejected like any name outside the grammar, spelled as given.
    with pytest.raises(module.SyntaxErrorLR) as unknown:
        module.parse([("id", 1), ("no_such_terminal", None)])
    assert info.value.position == unknown.value.position == 1
    assert info.value.expected == unknown.value.expected
    assert str(info.value) == str(unknown.value).replace("no_such_terminal", "$end")


def test_served_parse_rejects_the_end_marker(tmp_path):
    expected = {"grammar": EXPR.name, "valid": False, "error": ERROR}
    with ServiceThread(cache_dir=str(tmp_path)) as thread:
        client = Client(thread.port)
        for extra in ({}, {"tree": True}, {"engine": "glr"},
                      {"engine": "glr", "tree": True}):
            payload = {"corpus": "expr", "input": "id $end + +", **extra}
            response = client.post("/parse", payload)
            assert response.status == 200, extra
            assert json.loads(response.body) == expected, extra
