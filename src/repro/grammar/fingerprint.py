"""Content fingerprints for grammars and productions — one hashing home.

Three subsystems used to hash grammars independently: the table cache
keyed entries on :func:`grammar_fingerprint` (then private to
:mod:`repro.tables.serialize`), the fuzz corpus derived failure
identities from the grammar's arrow text, and the incremental session
keys its memo of superseded artifact bundles on the grammar digest.
This module is the single source for all of them.

Stability contracts:

- :func:`grammar_fingerprint` is **byte-for-byte stable** with the
  payload the table cache has always used — existing on-disk cache
  entries keep hitting across this refactor (asserted by the cache-key
  stability test).
- :func:`text_fingerprint` reproduces the corpus failure-identity digest
  (``sha256(part1 + b"\\x00" + part2 + ...)``) so persisted corpus
  filenames stay valid.

Per-production fingerprints are *content* hashes: they cover the rule
itself (lhs, rhs spelling, effective precedence symbol) but not the
production's index, so reordering-insensitive comparisons and the
writer/reader roundtrip test can reason per rule.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii as _encode
from typing import List

from .grammar import Grammar
from .production import Production
from .symbols import ID_LAYOUT_VERSION

__all__ = [
    "grammar_fingerprint",
    "grammar_content_key",
    "grammar_text",
    "production_fingerprint",
    "production_fingerprints",
    "text_fingerprint",
]


def grammar_fingerprint(grammar: Grammar) -> str:
    """A stable hash of the grammar's rules, start symbol and precedence.

    The symbol-ID layout version is part of the payload: a change to how
    dense IDs are assigned re-keys every cached table, because the
    ID-indexed rows rebuilt at load time must match the layout the table
    was validated under.

    The payload is the ``json.dumps(..., sort_keys=True)`` spelling of
    ``{"id_layout", "precedence", "productions", "start"}``, assembled
    from one JSON fragment per rule, cached on the :class:`Production`,
    so a grammar that shares rules with an earlier one serialises only
    its new rules.  The digest is cached on the (immutable) grammar.
    """
    cached = grammar.__dict__.get("_fingerprint")
    if cached is not None and cached[0] == ID_LAYOUT_VERSION:
        return cached[1]
    precedence = sorted(
        (s.name, prec.level, prec.assoc.value)
        for s, prec in grammar.precedence.items()
    )
    blob = '{"id_layout": %s, "precedence": %s, "productions": [%s], "start": %s}' % (
        json.dumps(ID_LAYOUT_VERSION),
        json.dumps(precedence),
        ", ".join([p.fragment or _fragment(p) for p in grammar.productions]),
        _encode(grammar.start.name),
    )
    digest = hashlib.sha256(blob.encode()).hexdigest()
    grammar._fingerprint = (ID_LAYOUT_VERSION, digest)
    return digest


#: The in-memory session memo key is the same digest: one sha256 over one
#: serialised blob, cheap enough to compute per edit.
grammar_content_key = grammar_fingerprint


def _fragment(production: Production) -> str:
    """The rule's JSON spelling ``[lhs, [rhs...], prec]``, as ``json.dumps``
    writes it, cached on the (immutable) production."""
    fragment = production.fragment
    if fragment is None:
        prec = production.prec_symbol
        fragment = production.fragment = "[%s, [%s], %s]" % (
            _encode(production.lhs.name),
            ", ".join([_encode(s.name) for s in production.rhs]),
            "null" if prec is None else _encode(prec.name),
        )
    return fragment


def production_fingerprint(production: Production) -> str:
    """Content hash of one rule: lhs, rhs spelling, effective %prec.

    Index-free on purpose — two grammars that state the same rule at
    different positions yield the same per-rule digest, which is what the
    writer/reader roundtrip and delta diagnostics compare.
    """
    return hashlib.sha256(_fragment(production).encode()).hexdigest()


def production_fingerprints(grammar: Grammar) -> List[str]:
    """Per-production content hashes, in production order."""
    return [production_fingerprint(p) for p in grammar.productions]


def text_fingerprint(*parts: str) -> str:
    """sha256 over *parts* joined by NUL bytes — the corpus identity shape.

    ``text_fingerprint(oracle, text)`` reproduces the historical failure
    fingerprint ``sha256(oracle + b"\\x00" + text)`` exactly.
    """
    digest = hashlib.sha256()
    for i, part in enumerate(parts):
        if i:
            digest.update(b"\x00")
        digest.update(part.encode("utf-8"))
    return digest.hexdigest()


def grammar_text(grammar: Grammar) -> str:
    """The grammar's canonical arrow text minus ``%name`` lines.

    This is the *structural* spelling fuzz-failure identities hash: the
    grammar name carries the generating seed and must not distinguish
    otherwise-identical failures.
    """
    from .writer import write_arrow

    return "\n".join(
        line
        for line in write_arrow(grammar).splitlines()
        if not line.startswith("%name ")
    )
