"""Parse trees and forests as deep as the input is long.

``S -> a S | a`` nests one tree level per token, and ``S -> A S | x``
with ``A -> y | B``, ``B -> y`` one ambiguous forest level per ``y``.
Every ``Node`` traversal and the GLR engine's forest walks (one-tree
extraction, tree enumeration, tree counting) run on explicit stacks, so
a 3000-token input renders its tree and counts its trees on both
engines, in process and through a served ``/parse``.  On ordinary trees
and forests the results stay byte-identical to the recursive
definitions kept here as references.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import SentenceGenerator
from repro.grammar import load_grammar
from repro.grammars import corpus
from repro.grammars.random_gen import random_grammar
from repro.parser import GlrParser, ParseError, Parser
from repro.parser.glr import _families, _only_tree, _tree_count, _tree_list
from repro.parser.tree import Node
from repro.service import Client, ServiceThread
from repro.service.app import GrammarHandles, execute
from repro.tables import build_lalr_table

DEPTH = 3000
RIGHT_NESTED = "S -> a S | a"
#: Every ``y`` reads as ``A -> y`` or ``A -> B -> y``: one ambiguous
#: SPPF node per token, nested as deep as the input is long.
AMBIGUOUS_NESTED = "S -> A S | x\nA -> y | B\nB -> y"


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


def _tree_list_reference(node, memo, on_path, limit):
    key = id(node)
    cached = memo.get(key)
    if cached is not None:
        return cached
    families = _families(node)
    if not families:
        token = node[0]
        leaves = [Node(token.symbol, value=token.value)]
        memo[key] = leaves
        return leaves
    if key in on_path:
        return None
    on_path.add(key)
    out = []
    clean = True
    for production, children in families:
        combos = [[]]
        for child in children:
            sub = _tree_list_reference(child, memo, on_path, limit)
            if sub is None:
                clean = False
                combos = []
                break
            if not sub:
                combos = []
                break
            combos = [prefix + [tree] for prefix in combos for tree in sub]
            if len(combos) > limit:
                combos = combos[:limit]
                clean = False
        for combo in combos:
            out.append(Node(production.lhs, combo, production=production))
            if len(out) >= limit:
                clean = False
                break
        if len(out) >= limit:
            break
    on_path.discard(key)
    if clean:
        memo[key] = out
    return out


def _tree_count_reference(node, memo, on_path, limit):
    key = id(node)
    cached = memo.get(key)
    if cached is not None:
        return cached
    families = _families(node)
    if not families:
        memo[key] = 1
        return 1
    if key in on_path:
        return None
    on_path.add(key)
    total = 0
    clean = True
    for _production, children in families:
        combos = 1
        for child in children:
            sub = _tree_count_reference(child, memo, on_path, limit)
            if sub is None:
                clean = False
                combos = 0
                break
            if not sub:
                combos = 0
                break
            combos *= sub
            if combos > limit:
                combos = limit
                clean = False
        if combos:
            total = min(total + combos, limit)
            if total >= limit:
                clean = False
                break
    on_path.discard(key)
    if clean:
        memo[key] = total
    return total


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


# -- forest walks: the explicit-stack walk against the recursive reference ----

LIMITS = (1, 2, 3, 7, 1000)
CYCLIC = ["S -> S | a", "S -> A | a\nA -> S | b"]


def _forests():
    """(label, forest) for every accepted stream of the corpus grammars,
    a seeded spread of the random grammars the glr-parity fuzz oracle
    runs on, and two cyclic grammars (the cycle guard's cases)."""
    grammars = [(name, corpus.load(name)) for name in corpus.names()]
    grammars += [(f"random-{seed}", random_grammar(seed)) for seed in range(40)]
    grammars += [(text, load_grammar(text, name="cyclic")) for text in CYCLIC]
    for label, grammar in grammars:
        augmented = grammar.augmented()
        glr = GlrParser(build_lalr_table(augmented))
        for sentence in SentenceGenerator(augmented, seed=5).sentences(4, budget=12):
            try:
                forest = glr.parse_forest([symbol.name for symbol in sentence])
            except ParseError:
                continue
            yield label, forest


def _rendered(trees):
    return None if trees is None else [tree.format() for tree in trees]


class TestForestWalks:
    def test_walks_match_the_recursive_references(self):
        ambiguous = cyclic = 0
        for label, forest in _forests():
            for limit in LIMITS:
                memo, reference_memo = {}, {}
                listed = _tree_list(forest.root, memo, set(), limit)
                expected = _tree_list_reference(forest.root, reference_memo, set(), limit)
                assert _rendered(listed) == _rendered(expected), (label, limit)
                assert memo.keys() == reference_memo.keys(), (label, limit)
                memo, reference_memo = {}, {}
                counted = _tree_count(forest.root, memo, set(), limit)
                assert counted == _tree_count_reference(
                    forest.root, reference_memo, set(), limit
                ), (label, limit)
                assert memo == reference_memo, (label, limit)
                assert counted == (len(listed) if listed is not None else None)
            expected = _tree_list_reference(forest.root, {}, set(), 1000) or []
            assert _rendered(forest.trees()) == _rendered(expected), label
            assert forest.tree_count() == len(expected), label
            if expected:
                assert forest.tree().format() == expected[0].format(), label
            ambiguous += bool(forest.ambiguous_nodes)
            cyclic += label in CYCLIC
        assert ambiguous > 20 and cyclic


@pytest.fixture(scope="module")
def deep_ambiguous():
    grammar = load_grammar(AMBIGUOUS_NESTED, name="amb").augmented()
    words = ["y"] * DEPTH + ["x"]
    return words, GlrParser(build_lalr_table(grammar)).parse_forest(words)


class TestDeepAmbiguousForests:
    def test_count_and_trees(self, deep_ambiguous):
        words, forest = deep_ambiguous
        assert forest.ambiguous_nodes == DEPTH
        assert forest.tree_count() == 1000
        assert forest.is_ambiguous
        tree = forest.tree()
        assert [leaf.symbol.name for leaf in tree.leaves()] == words
        trees = forest.trees(limit=3)
        assert len({t.sexpr() for t in trees}) == 3
        assert trees[0] == tree

    def test_shallow_forest_matches_the_references(self):
        grammar = load_grammar(AMBIGUOUS_NESTED, name="amb").augmented()
        forest = GlrParser(build_lalr_table(grammar)).parse_forest(["y"] * 60 + ["x"])
        expected = _tree_list_reference(forest.root, {}, set(), 5)
        assert _rendered(forest.trees(limit=5)) == _rendered(expected)
        assert forest.tree_count() == _tree_count_reference(forest.root, {}, set(), 1000)

    @pytest.mark.parametrize("tree", [False, True], ids=["count", "tree"])
    def test_execute_answers(self, deep_ambiguous, tree):
        words, forest = deep_ambiguous
        body = execute(
            "parse",
            {"grammar": AMBIGUOUS_NESTED, "input": words, "tree": tree, "engine": "glr"},
            {},
            None,
            GrammarHandles(2),
        )
        assert body["valid"] is True
        assert body["trees"] == 1000
        assert ("tree" in body) is tree
        if tree:
            assert body["tree"] == forest.tree().format()

    def test_served_parse_answers(self, deep_ambiguous, tmp_path):
        words, forest = deep_ambiguous
        with ServiceThread(cache_dir=str(tmp_path)) as thread:
            client = Client(thread.port)
            for tree in (False, True):
                response = client.post(
                    "/parse",
                    {"grammar": AMBIGUOUS_NESTED, "input": words, "tree": tree,
                     "engine": "glr"},
                )
                assert response.status == 200, response.body[:200]
                body = json.loads(response.body)
                assert body["trees"] == 1000
                assert body.get("tree") == (forest.tree().format() if tree else None)
