"""Parse trees as deep as the input is long.

``S -> a S | a`` nests one tree level per token.  Every ``Node``
traversal and the GLR engine's one-tree extraction run on explicit
stacks, so a 3000-token input renders its tree on both engines, in
process and through a served ``/parse`` with ``"tree": true``.  On
ordinary trees the renderings stay byte-identical to the recursive
definitions kept here as references.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import SentenceGenerator
from repro.grammar import load_grammar
from repro.grammars import corpus
from repro.parser import GlrParser, Parser
from repro.parser.glr import _only_tree, _tree_list
from repro.service import Client, ServiceThread
from repro.service.app import GrammarHandles, execute
from repro.tables import build_lalr_table

DEPTH = 3000
RIGHT_NESTED = "S -> a S | a"


# -- the recursive definitions the iterative traversals must match -----------

def _format(node, indent=""):
    if node.is_leaf:
        label = node.symbol.name
        if node.value is not None and str(node.value) != label:
            label += f" ({node.value!r})"
        return f"{indent}{label}"
    lines = [f"{indent}{node.symbol.name}"]
    lines.extend(_format(child, indent + "  ") for child in node.children)
    return "\n".join(lines)


def _sexpr(node):
    if node.is_leaf:
        return node.symbol.name
    inner = " ".join(_sexpr(child) for child in node.children)
    return f"({node.symbol.name} {inner})" if inner else f"({node.symbol.name})"


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


def _corpus_trees():
    """(name, LR tree, GLR forest) over sampled sentences of every
    deterministic corpus grammar."""
    for name in corpus.names():
        grammar = corpus.load(name).augmented()
        table = build_lalr_table(grammar)
        if not table.is_deterministic:
            continue
        parser, glr = Parser(table), GlrParser(table)
        for sentence in SentenceGenerator(grammar, seed=3).sentences(4, budget=20):
            words = [symbol.name for symbol in sentence]
            yield name, parser.parse(words), glr.parse_forest(words)


class TestByteIdentity:
    def test_renderings_match_the_recursive_definitions(self):
        checked = 0
        for _name, tree, _forest in _corpus_trees():
            assert tree.format() == _format(tree)
            assert tree.format("    ") == _format(tree, "    ")
            assert tree.sexpr() == _sexpr(tree)
            assert repr(tree) == f"Node({_sexpr(tree)})"
            walked = list(_walk(tree))
            assert [id(n) for n in tree.walk()] == [id(n) for n in walked]
            assert [id(n) for n in tree.leaves()] == [
                id(n) for n in walked if n.is_leaf
            ]
            assert tree.derivation() == [
                n.production for n in walked if not n.is_leaf
            ]
            checked += 1
        assert checked > 20

    def test_values_and_empty_interiors_render_as_before(self):
        grammar = load_grammar("S -> A b\nA -> %empty", name="eps").augmented()
        tree = Parser(build_lalr_table(grammar)).parse(["b"])
        assert tree.sexpr() == "(S (A) b)" == _sexpr(tree)
        assert tree.format() == "S\n  A\n  b" == _format(tree)

    def test_unambiguous_forest_tree_matches_the_enumeration(self):
        checked = 0
        for name, tree, forest in _corpus_trees():
            assert forest.ambiguous_nodes == 0, name
            only = _only_tree(forest.root)
            listed = _tree_list(forest.root, {}, set(), 1)[0]
            assert only == listed == tree
            assert only.format() == listed.format()
            assert forest.tree().sexpr() == listed.sexpr()
            checked += 1
        assert checked > 20


@pytest.fixture(scope="module")
def deep():
    grammar = load_grammar(RIGHT_NESTED, name="deep").augmented()
    table = build_lalr_table(grammar)
    words = ["a"] * DEPTH
    return Parser(table).parse(words), GlrParser(table).parse_forest(words)


class TestDeepTrees:
    def test_lr_tree_traversals(self, deep):
        tree, _ = deep
        assert len(tree.derivation()) == DEPTH
        assert len(tree.fringe()) == DEPTH
        assert sum(1 for _ in tree.walk()) == 2 * DEPTH
        text = tree.format()
        assert text.count("\n") == 2 * DEPTH - 1
        assert text.rsplit("\n", 1)[-1] == "  " * DEPTH + "a"
        assert tree.sexpr() == "(S a " * (DEPTH - 1) + "(S a)" + ")" * (DEPTH - 1)

    def test_glr_tree_equals_the_lr_tree(self, deep):
        tree, forest = deep
        assert forest.ambiguous_nodes == 0
        assert forest.tree_count() == 1
        glr_tree = forest.tree()
        assert glr_tree == tree
        assert glr_tree.format() == tree.format()

    @pytest.mark.parametrize("engine", ["lr", "glr"])
    def test_execute_renders_the_tree(self, deep, engine):
        tree, _ = deep
        body = execute(
            "parse",
            {"grammar": RIGHT_NESTED, "input": " ".join(["a"] * DEPTH),
             "tree": True, "engine": engine},
            {},
            None,
            GrammarHandles(2),
        )
        assert body["valid"] is True
        assert body["tree"] == tree.format()

    def test_served_parse_renders_the_tree(self, deep, tmp_path):
        tree, _ = deep
        with ServiceThread(cache_dir=str(tmp_path)) as thread:
            client = Client(thread.port)
            for engine in ("lr", "glr"):
                response = client.post(
                    "/parse",
                    {"grammar": RIGHT_NESTED, "input": " ".join(["a"] * DEPTH),
                     "tree": True, "engine": engine},
                )
                assert response.status == 200, response.body[:200]
                body = json.loads(response.body)
                assert body["valid"] is True
                assert body["tree"] == tree.format()
