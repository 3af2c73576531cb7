"""Unit tests: content fingerprints and the writer/reader roundtrip.

``repro.grammar.fingerprint`` is the single hashing authority: the
on-disk table cache key, the in-memory session memo key and the fuzz
failure-corpus identity all derive from it.  These tests pin the
properties those consumers rely on — content-only (names and object
identity don't matter), layout-versioned, and preserved bit-for-bit by
a ``write_arrow`` → ``load_grammar`` roundtrip.
"""

import hashlib
import json

import pytest

from repro.grammar import GrammarBuilder, load_grammar, write_arrow
from repro.grammar.delta import replace_rhs
from repro.grammar.fingerprint import (
    grammar_content_key,
    grammar_fingerprint,
    grammar_text,
    production_fingerprint,
    production_fingerprints,
    text_fingerprint,
)
from repro.grammar.symbols import ID_LAYOUT_VERSION
from repro.grammars import corpus
from repro.grammars.random_gen import random_grammar

EXPR = """
E -> E + T | T
T -> T * F | F
F -> ( E ) | id
"""


class TestGrammarFingerprint:
    def test_content_equal_means_fingerprint_equal(self):
        first = load_grammar(EXPR, name="one")
        second = load_grammar(EXPR, name="two")
        assert grammar_fingerprint(first) == grammar_fingerprint(second)

    def test_name_is_not_part_of_the_content(self):
        # Generated grammars carry their seed in the name; cache hits
        # across runs require the digest to ignore it.
        first = load_grammar(EXPR, name="seed-1")
        second = load_grammar(EXPR, name="seed-2")
        assert grammar_fingerprint(first) == grammar_fingerprint(second)

    def test_rhs_edit_changes_the_fingerprint(self):
        grammar = load_grammar(EXPR).augmented()
        edited = replace_rhs(grammar, 6, ["("])
        assert grammar_fingerprint(grammar) != grammar_fingerprint(edited)

    def test_production_order_matters(self):
        first = load_grammar("S -> a\nS -> b")
        second = load_grammar("S -> b\nS -> a")
        assert grammar_fingerprint(first) != grammar_fingerprint(second)

    def test_memo_key_is_the_same_digest(self):
        assert grammar_content_key is grammar_fingerprint

    def test_hex_shape(self):
        digest = grammar_fingerprint(load_grammar(EXPR))
        assert len(digest) == 64
        int(digest, 16)


class TestProductionFingerprint:
    def test_index_free(self):
        # The same rule stated at different positions hashes the same.
        first = load_grammar("S -> a\nS -> b")
        second = load_grammar("S -> b\nS -> a")
        assert set(production_fingerprints(first)) == set(
            production_fingerprints(second)
        )
        assert production_fingerprints(first) != production_fingerprints(second)

    def test_in_production_order(self):
        grammar = load_grammar(EXPR)
        assert production_fingerprints(grammar) == [
            production_fingerprint(p) for p in grammar.productions
        ]


class TestTextFingerprint:
    def test_reproduces_the_historical_corpus_identity(self):
        # The corpus has hashed sha256(oracle + b"\x00" + grammar_text)
        # since its first commit; dedupe against old entries requires
        # the shared helper to produce the identical digest.
        oracle, text = "lalr-vs-clr", "S -> a S | b\n"
        expected = hashlib.sha256(
            oracle.encode() + b"\x00" + text.encode()
        ).hexdigest()
        assert text_fingerprint(oracle, text) == expected

    def test_parts_are_not_concatenated_blindly(self):
        assert text_fingerprint("ab", "c") != text_fingerprint("a", "bc")

    def test_grammar_text_strips_name_lines(self):
        grammar = load_grammar(EXPR, name="seed-42")
        assert "%name" not in grammar_text(grammar)


def _roundtrip_case_names():
    return [entry.name for entry in corpus.all_entries()]


class TestWriterRoundtripPreservesFingerprints:
    """Satellite property: serialising a grammar and reading it back
    preserves every per-production fingerprint *and their order* —
    i.e. the writer is lossless for everything the content hash sees."""

    @pytest.mark.parametrize("name", _roundtrip_case_names())
    def test_corpus_roundtrip(self, name):
        original = corpus.load(name)
        reparsed = load_grammar(write_arrow(original))
        assert production_fingerprints(reparsed) == production_fingerprints(
            original
        )
        assert grammar_fingerprint(reparsed) == grammar_fingerprint(original)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_grammar_roundtrip(self, seed):
        original = random_grammar(seed)
        reparsed = load_grammar(write_arrow(original))
        assert production_fingerprints(reparsed) == production_fingerprints(
            original
        )
        assert grammar_fingerprint(reparsed) == grammar_fingerprint(original)


#: ``grammar_fingerprint`` of every corpus grammar, plain and augmented,
#: recorded before the digest was assembled from per-rule fragments.
#: These digests key the on-disk table store and sit in every ``.rtb``
#: header, so they must never move.
CORPUS_FINGERPRINTS = {
    "lr0_demo": (
        "ddba8b8ae5a771439ef20fe3f66f6ed61976812766db3d0b8cd5cdc04d6a461d",
        "438b74b4e4e50a40ddbba5288afeb68318ec1580dff7ff515cf8ff22e8f8475e",
    ),
    "slr_not_lr0": (
        "99c668389153ee6c8cd9e7e661326ad7cffe43223ff904be88085fea32828c02",
        "6c394fd1ec0dbda1e49931ca4d43e12b8907a8ece29c2cabac2e5d9c3175a4f5",
    ),
    "expr": (
        "ab4ac605be9d3d0f97f1994f0daa0b9f0f0f770e33b58cd17bb9025a592db586",
        "9db1c456c7b3c7fdb41fbc126ffb3f6b8f5da5d49885fe9d7eeb48c22253c99d",
    ),
    "lalr_not_slr": (
        "6059468cda9f086ecbc03f0b23ce7c97ab40ccb0dc1e9e5f49cb245d19241427",
        "15477ba27116d110b77079389dd9afe8b1e8cac68b3b4ef9c5528e3566594a7d",
    ),
    "lr1_not_lalr": (
        "d070b2bdc5663442ad3c6adcd1a52e9025a8a52420223412670129f0d312793a",
        "978f274aa11e80b3284af3a9e41bdbb61523177fec07a8c8c682d68bfa2a002d",
    ),
    "dangling_else": (
        "94b4fb50c62b7206537257df89c1fbd1d801ab25d1fbc1ae36de78f8112c592c",
        "0d21f7b88dfec6a2b1cd31842a81ef72904771474425e53a91930ea40f1dd379",
    ),
    "palindrome": (
        "0fe9a35e9c8a23e7528e2b0ddfbc0aee7b3d73d8bd784090c59d0dfe819b4882",
        "7c450dbbba975a45ec448f0d95b3f44198a7407c2a644a0b14ce7e1da94c7d40",
    ),
    "reads_cycle": (
        "270891d6050c87d89c5241388c99466cbed005aaa9ad5309c2b8d63a7026df00",
        "776cf7a49ec7e73ca2d2da26f7ba80fef72802c22fefc6362c1e744ebbcb82c1",
    ),
    "epsilon_heavy": (
        "269e452684c5e63864b73b4f1d9b050425ac748f9a06a92adc0b74dcc1ea01f8",
        "cefc863faf36d7b88c17d4e7937428e8d5b0ff8c98c058fe2953fcfb37232ae9",
    ),
    "unit_chain": (
        "d251bc2ad4c65d1d91e14e9661c205d51aab746ee0b73a4efb607476c8ad33b1",
        "28f6ac39a2350ca09725d4e616452a24c6f8c30bad50f0c9ad8137ab766df3b4",
    ),
    "json": (
        "266d3d0d4bc68b4a65e5c177a9f74d84bab3c54dc640686c4e6ca821f0f75c21",
        "a433be6ff1769903fade6208f67b5c54931884c5e1f0dde290b8c338788d6db4",
    ),
    "mini_pascal": (
        "b70689c72c9ac877ffab7c844110dc68a097178e48ac18046ef96236f9d2ab56",
        "00c7771f744cb247b8beda949002cf7a771e9b5e52d537b70b99cc29dd60afb4",
    ),
    "mini_pascal_det": (
        "8d3f95cbbfc3d202b8fda07f33473837dae96fa02e61ce652bfacc29a3c19db6",
        "665d8645b67556e97d6acb3b465456aa1927844d7dc84a095cc8a8a37700a13e",
    ),
    "mini_c": (
        "e4578f4e93f9188bb4a631cbac3842673933845ee50b98af9bea5af293a3e128",
        "54be5d163a00ada320a35e78f9296eef01daf01225ad1ae2554db8f736dc2f78",
    ),
    "toy_java": (
        "f52a368d707766cc315edf2385fc4fd0768d7902ebbef72170074f058a18881d",
        "5957354041c3d60324fc1dc130513b00e70d6e447cd2eafa974f2f50bf869b9f",
    ),
    "algol_like": (
        "a05c32364a8513e8c12864b521018de9c28d59b57aa4bfe057b39d1954cc6e2c",
        "43e733e022eddb930f4ae1135390e16c248fbfce056bf17aa10025941a7207f1",
    ),
    "expr_prec": (
        "bdfa5125301f1dd8678a52b1465591f54e0b348d2952cdb66ba5225880ec4794",
        "2f8c43d9ee7f3a41485e712d69a5dc25f1530db8779f651497ca03ab07e3709e",
    ),
    "lua_like_chunks": (
        "db011d688f8bdb727e65361a99a9cd4fae9b0c69cfc5c9826dea9778d2414b7b",
        "9bc24b6172738a24814a6fc73200e68d0cc5749d530ad50909129b0d9c7a0fcb",
    ),
    "nqlalr_trap": (
        "b2dbd4bbbe3e79693b837d33145fd8db80ebfc0e978b621eb5045f68b3747785",
        "82ba27f4423f3e038c91a0cf50df608dd01571a2d3c7b9c1806d15fdeda842c8",
    ),
    "lvalue": (
        "eb0095e9574d7dd6777486f8261ca1a7fd04c684c3b3d0e4082c817900f4c458",
        "0df4322ca1b3b41466e79e845b092ee9713f1fe394f8691b8a27b3333f0f4e84",
    ),
}

#: The augmented expression grammar after ``replace_rhs`` at 1, 6 and 3.
EDIT_CHAIN = (
    (1, ["E", "*", "T"], "f36c382cd964b2136809ba3df57b0bd4a73396a6d855c8fa817abd5c9f691827"),
    (6, ["(", "E", "]"], "ae26275f066ee8a2e49bc685717e56dd8b9cff510b7c211bf67ea8f68ec19561"),
    (3, ["T", "*", "id"], "8727af81a6acb6888eed43ed30efdd2987e1904e3f8ef3105c857f510917d7f3"),
)

#: sha256 over the newline-joined ``production_fingerprints`` of two
#: augmented corpus grammars.
PRODUCTION_PINS = {
    "expr": "eedc5f8e04037e527b7c0d965e3ad7e00120c4924125cf8954d033627e6877ab",
    "toy_java": "264b70c994421d653c619e73fe72c82fee01dbc44676f35eccb1d63bdf1cb5e0",
}



class TestPinnedDigests:
    def test_every_corpus_grammar_is_pinned(self):
        assert set(CORPUS_FINGERPRINTS) == set(corpus.names())

    @pytest.mark.parametrize("name", sorted(CORPUS_FINGERPRINTS))
    def test_corpus_digest(self, name):
        plain, augmented = CORPUS_FINGERPRINTS[name]
        grammar = corpus.load(name)
        assert grammar_fingerprint(grammar) == plain
        assert grammar_fingerprint(grammar.augmented()) == augmented
        # Cached answers are the same answers.
        assert grammar_fingerprint(grammar) == plain

    def test_edit_chain(self):
        current = corpus.load("expr").augmented()
        for index, rhs, digest in EDIT_CHAIN:
            current = replace_rhs(current, index, rhs)
            assert grammar_fingerprint(current) == digest

    @pytest.mark.parametrize("name", sorted(PRODUCTION_PINS))
    def test_production_fingerprints(self, name):
        digests = production_fingerprints(corpus.load(name).augmented())
        joined = "\n".join(digests).encode()
        assert hashlib.sha256(joined).hexdigest() == PRODUCTION_PINS[name]


class TestFragments:
    @pytest.mark.parametrize(
        "rhs",
        [
            ["a", "S", "b"],
            [],
            ["S"],
            ["'", '"', "\\", "caf\u00e9", "\u2192", "tab\tx", "\U0001d11e"],
        ],
    )
    def test_fragment_is_the_json_dumps_spelling(self, rhs):
        builder = GrammarBuilder()
        builder.rule("S", rhs)
        builder.rule("S", ["a"])
        production = builder.build(start="S").productions[0]
        assert [s.name for s in production.rhs] == rhs
        expected = json.dumps(
            [production.lhs.name, [s.name for s in production.rhs],
             production.prec_symbol.name if production.prec_symbol else None]
        )
        assert production_fingerprint(production) == hashlib.sha256(
            expected.encode()
        ).hexdigest()

    def test_grammar_payload_is_the_json_dumps_spelling(self):
        grammar = corpus.load("expr_prec").augmented()
        payload = {
            "id_layout": ID_LAYOUT_VERSION,
            "start": grammar.start.name,
            "productions": [
                [p.lhs.name, [s.name for s in p.rhs],
                 p.prec_symbol.name if p.prec_symbol else None]
                for p in grammar.productions
            ],
            "precedence": sorted(
                (s.name, prec.level, prec.assoc.value)
                for s, prec in grammar.precedence.items()
            ),
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        assert grammar_fingerprint(grammar) == hashlib.sha256(blob).hexdigest()

    def test_rhs_edit_serialises_only_the_changed_rule(self):
        grammar = corpus.load("toy_java").augmented()
        grammar_fingerprint(grammar)
        edited = replace_rhs(grammar, 6, ["int"])
        fresh = [p for p in edited.productions if p.fragment is None]
        assert [p.index for p in fresh] == [6]
        grammar_fingerprint(edited)
        shared = [
            p for p, q in zip(grammar.productions, edited.productions) if p is q
        ]
        assert len(shared) == len(grammar.productions) - 1

    def test_fingerprint_is_cached_on_the_grammar(self):
        grammar = load_grammar(EXPR)
        digest = grammar_fingerprint(grammar)
        assert grammar._fingerprint == (ID_LAYOUT_VERSION, digest)


class TestEditChainMatchesFreshReads:
    """Shared rules, a shared layout and cached fragments must give each
    edited grammar exactly the digest of the same rules read afresh."""

    @pytest.mark.parametrize("name", ["expr", "toy_java", "mini_c", "expr_prec"])
    def test_chain_against_writer_roundtrip(self, name):
        import random

        rng = random.Random(name)
        current = corpus.load(name).augmented()
        names = [
            s.name for s in current.symbols
            if s is not current.start and s is not current.eof
        ]
        for _ in range(6):
            index = rng.randrange(1, len(current.productions))
            rhs = [rng.choice(names) for _ in range(rng.randrange(0, 4))]
            current = replace_rhs(current, index, rhs)
            fresh = load_grammar(write_arrow(current)).augmented()
            assert grammar_fingerprint(current) == grammar_fingerprint(fresh)
            assert production_fingerprints(current) == production_fingerprints(
                fresh
            )
