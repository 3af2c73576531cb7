"""Recognition-only ``/parse``: the answer without a tree nobody asked for.

A ``/parse`` without ``"tree": true`` runs the LR engine through
:meth:`Parser.check` and counts GLR derivations with
:meth:`ParseForest.tree_count`; neither allocates a parse tree.  The body,
the diagnostics and every budget trip must stay byte-identical to the
path that builds the trees and then drops them.
"""

from __future__ import annotations

import io
import re
from contextlib import redirect_stdout

import pytest

from repro.analysis import SentenceGenerator
from repro.cli import main
from repro.core.budget import Budget, BudgetExceeded
from repro.grammars import corpus
from repro.parser import ConflictedTableError, GlrParser, ParseError, Parser
from repro.parser import engine as engine_module
from repro.parser import glr as glr_module
from repro.parser.glr import ParseForest
from repro.service import Client, HttpError, ServiceThread
from repro.service import app
from repro.tables import build_lalr_table

ENGINES = ("lr", "glr")


def _grammar(name: str):
    return corpus.load(name).augmented()


def _inputs(grammar) -> "list[list[str]]":
    """Valid sentences, a mutant of each, an unknown terminal, a
    nonterminal name and the empty input."""
    sentences = SentenceGenerator(grammar, seed=0).sentences(3, budget=16)
    terminals = sorted(
        (t.name for t in grammar.terminals if t is not grammar.eof)
    )
    streams = [[s.name for s in sentence] for sentence in sentences]
    for index, sentence in enumerate(sentences):
        if sentence:
            mutant = [s.name for s in sentence]
            mutant[index % len(mutant)] = terminals[index % len(terminals)]
            streams.append(mutant)
            streams.append(mutant + mutant[:1])
    streams.append(["no_such_terminal"])
    streams.append([grammar.original_start.name])
    streams.append([])
    return streams


def _tree_path(grammar, tokens, engine, budget=None) -> dict:
    """The tree-free ``/parse`` body as computed by building every tree
    and dropping it: ``Parser.parse`` on LR, ``len(forest.trees())`` on
    GLR."""
    table = build_lalr_table(grammar, budget=budget)
    if engine == "glr":
        try:
            forest = GlrParser(table).parse_forest(tokens, budget=budget)
        except ParseError as error:
            return {"grammar": grammar.name, "valid": False, "error": str(error)}
        return {
            "grammar": grammar.name,
            "valid": True,
            "trees": len(forest.trees(limit=1000)),
        }
    try:
        parser = Parser(table)
    except ConflictedTableError as error:
        raise HttpError(422, "conflicted_table", str(error))
    try:
        parser.parse(tokens, budget=budget)
    except ParseError as error:
        return {"grammar": grammar.name, "valid": False, "error": str(error)}
    return {"grammar": grammar.name, "valid": True}


def _outcome(run) -> tuple:
    try:
        return ("ok", run())
    except HttpError as error:
        return ("http", error.status, error.code, error.detail)
    except BudgetExceeded as error:
        return ("budget", error.phase, error.resource, error.limit,
                dict(error.progress))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", corpus.names())
def test_bodies_match_the_tree_path(name, engine):
    grammar = _grammar(name)
    for tokens in _inputs(grammar):
        fast = _outcome(
            lambda: app.parse_result(grammar, tokens, tree=False, engine=engine)
        )
        assert fast == _outcome(lambda: _tree_path(grammar, tokens, engine)), tokens


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "caps",
    [
        {"max_parse_steps": cap} for cap in (1, 2, 5, 9, 17)
    ] + [
        {"max_tokens": cap} for cap in (1, 3, 7)
    ],
)
def test_budgets_trip_at_the_same_step(engine, caps):
    grammar = _grammar("expr")
    tokens = "id + id * ( id + id ) * id".split()
    fast = _outcome(
        lambda: app.parse_result(
            grammar, tokens, tree=False, engine=engine, budget=Budget(**caps)
        )
    )
    slow = _outcome(
        lambda: _tree_path(grammar, tokens, engine, budget=Budget(**caps))
    )
    assert fast == slow
    assert fast[0] == "budget"


def test_served_503_bytes_match_the_tree_path(tmp_path, monkeypatch):
    requests = []
    for engine in ENGINES:
        for header, cap in [
            ("X-Repro-Max-Parse-Steps", "4"),
            ("X-Repro-Max-Parse-Steps", "11"),
            ("X-Repro-Max-Tokens", "2"),
        ]:
            payload = {"corpus": "expr", "input": "id + id * id", "engine": engine}
            requests.append((payload, {header: cap}))

    def serve(label: str) -> list:
        with ServiceThread(cache_dir=str(tmp_path / label)) as thread:
            client = Client(thread.port)
            answers = []
            for payload, headers in requests:
                response = client.post("/parse", payload, headers)
                # A blown budget reports its wall clock; all else is fixed.
                body = re.sub(rb'"elapsed_seconds":[^,]*,', b"", response.body)
                answers.append((response.status, body))
            return answers

    fast = serve("check")
    assert {status for status, _ in fast} == {503}
    monkeypatch.setattr(
        Parser, "check", lambda self, tokens, budget=None: self.parse(tokens, budget)
    )
    monkeypatch.setattr(
        ParseForest, "tree_count", lambda self, limit=1000: len(self.trees(limit))
    )
    assert serve("tree") == fast


def _no_nodes(*args, **kwargs):
    raise AssertionError("a parse tree node was allocated")


def test_no_tree_node_is_built(monkeypatch):
    monkeypatch.setattr(engine_module, "Node", _no_nodes)
    monkeypatch.setattr(glr_module, "Node", _no_nodes)
    grammar = _grammar("expr")
    tokens = "id + id * id".split()
    for engine in ENGINES:
        body = app.parse_result(grammar, tokens, tree=False, engine=engine)
        assert body["valid"] is True
        invalid = app.parse_result(grammar, ["id", "+"], tree=False, engine=engine)
        assert invalid["valid"] is False
    with pytest.raises(AssertionError):
        app.parse_result(grammar, tokens, tree=True)


def test_check_raises_what_parse_raises():
    parser = Parser(build_lalr_table(_grammar("expr")))
    for tokens in (["id", "+"], ["no_such_terminal"], [], ["E"]):
        with pytest.raises(ParseError) as checked:
            parser.check(tokens)
        with pytest.raises(ParseError) as parsed:
            parser.parse(tokens)
        assert str(checked.value) == str(parsed.value)
        assert checked.value.position == parsed.value.position
    assert parser.check(["id"]) is None


@pytest.mark.parametrize(
    "argv, code, output",
    [
        (["--input", "id + id"], 0, "valid\n"),
        (["--input", "id +"], 1, None),
        (["--input", "id + id", "--engine", "glr"], 0, "valid (1 parse tree)\n"),
        (["--input", "id +", "--engine", "glr"], 1, None),
    ],
)
def test_cli_parse_without_tree_builds_none(monkeypatch, argv, code, output):
    def cli(extra):
        captured = io.StringIO()
        with redirect_stdout(captured):
            status = main(["parse", "corpus:expr", *argv, *extra])
        return status, captured.getvalue()

    with_tree = cli(["--tree"])
    monkeypatch.setattr(engine_module, "Node", _no_nodes)
    monkeypatch.setattr(glr_module, "Node", _no_nodes)
    status, text = cli([])
    assert status == with_tree[0] == code
    if output is None:  # an error: the same line the tree path prints
        assert text == with_tree[1] and text.startswith("invalid: ")
    else:
        assert text == output
        assert with_tree[1].startswith(output)
