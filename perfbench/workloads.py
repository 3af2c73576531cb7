"""Seeded inputs for the four workloads, each with its expected answer.

A workload is the warm-up requests the server gets during set-up plus
the list of requests the closed loop cycles through.  Every expected
answer comes from a reference that shares no code with the path the
response takes:

- parse validity is known by construction for generated sentences and
  decided by the CYK recogniser for mutated ones;
- a compiled table's state count comes from the retained reference LR(0)
  builder, its conflict counts from a table filled with the LR(1)-merge
  baseline's look-aheads;
- a session edit must be served by a splice, and its state count must
  equal a from-scratch LR(0) automaton's.

The server never sees the seed, only the generated requests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.analysis.derive import SentenceGenerator
from repro.automaton.lr0 import LR0Automaton
from repro.automaton.lr0_reference import ReferenceLR0Automaton
from repro.baselines.merge_lr1 import MergedLr1Analysis
from repro.grammar.delta import replace_rhs
from repro.grammar.writer import write_arrow
from repro.grammars import corpus, families
from repro.grammars.random_gen import random_grammar
from repro.parser.cyk import CykRecognizer
from repro.pipeline import AnalysisSession
from repro.tables import build_lalr_table
from repro.tables.binfmt import table_to_bytes

NAMES = ("parse-short", "parse-long", "compile-cold", "edit-session")

#: Placeholder inside compile-cold grammar texts; each pass over the
#: ladder replaces it with the pass number, so every request renames the
#: start symbol and is a grammar the server has never seen.
PASS_MARK = "QQQQQQ"


@dataclass
class Request:
    """One request: where it goes, its JSON payload and what must come back."""

    path: str
    payload: dict
    tokens: int
    expect: dict
    splice: bool = False
    body: bytes = field(init=False)

    def __post_init__(self):
        self.body = json.dumps(self.payload, separators=(",", ":")).encode()

    @property
    def renamed(self) -> bool:
        """True when each pass sends this request with fresh names."""
        return PASS_MARK.encode() in self.body

    def body_for_pass(self, number: int) -> bytes:
        """The body of this request on pass *number* over the list."""
        return self.body.replace(PASS_MARK.encode(), b"%06d" % number)

    def check(self, status: int, body: bytes) -> bool:
        """True when the response is a 200 that holds every expected field."""
        if status != 200:
            return False
        try:
            answer = json.loads(body)
        except ValueError:
            return False
        if any(answer.get(key) != value for key, value in self.expect.items()):
            return False
        if self.splice:
            updates = answer.get("updates") or [""]
            return updates[0].startswith("splice ")
        return True


@dataclass
class Workload:
    name: str
    seed: int
    warmup: List[Request]
    requests: List[Request]


def build(name: str, seed: int) -> Workload:
    """The inputs of workload *name* for *seed* (same seed, same inputs)."""
    builders: Dict[str, Callable[[random.Random], tuple]] = {
        "parse-short": _parse_short,
        "parse-long": _parse_long,
        "compile-cold": _compile_cold,
        "edit-session": _edit_session,
    }
    if name not in builders:
        raise ValueError(f"unknown workload {name!r} (known: {', '.join(NAMES)})")
    warmup, requests = builders[name](random.Random(f"{name}/{seed}"))
    return Workload(name, seed, warmup, requests)


# -- parse workloads ----------------------------------------------------------

#: parse-short: the corpus spread, deterministic tables on the LR engine
#: and the two conflicted grammars on GLR.
SHORT_GRAMMARS = (
    ("toy_java", "lr"),
    ("algol_like", "lr"),
    ("mini_pascal_det", "lr"),
    ("lua_like_chunks", "lr"),
    ("json", "lr"),
    ("expr", "lr"),
    ("lvalue", "lr"),
    ("mini_c", "glr"),
    ("dangling_else", "glr"),
)
#: Every grammar gets as many sentences of each target length, and every
#: tenth is mutated, so the slowest twentieth of the mix (the p95) holds
#: alike requests whatever the seed.
SHORT_PER_GRAMMAR = 60
SHORT_TARGETS = (10, 20, 30, 40)
SHORT_MAX_TOKENS = 80
SHORT_MUTANT_EVERY = 10

#: parse-long: list-shaped grammars, so concatenated sentences are
#: sentences.  GLR stays at 1k tokens: at 10k it serves ~3 req/s.
LONG_INPUTS = (
    ("toy_java", "lr", 1000),
    ("toy_java", "lr", 2000),
    ("mini_c", "glr", 1000),
    ("toy_java", "lr", 5000),
    ("toy_java", "lr", 10000),
)
LONG_VARIANTS = 3


def _parse_warmup(grammars) -> List[Request]:
    """Compile each grammar, then parse once per engine so the loop
    starts on hot tables."""
    warmup = []
    for name in dict.fromkeys(g for g, _ in grammars):
        warmup.append(Request("/compile", {"corpus": name}, 0, {"grammar": name}))
    for name, engine in dict.fromkeys(grammars):
        tokens = [s.name for s in SentenceGenerator(corpus.load(name)).sentence(5)]
        warmup.append(_parse_request(name, engine, tokens, True))
    return warmup


def _parse_request(name: str, engine: str, tokens: List[str], valid: bool) -> Request:
    payload = {"corpus": name, "engine": engine, "input": tokens}
    return Request("/parse", payload, len(tokens), {"grammar": name, "valid": valid})


def _mutate(tokens: List[str], terminals: List[str], rng: random.Random) -> List[str]:
    mutant = list(tokens)
    where = rng.randrange(len(mutant))
    kind = rng.choice(("delete", "insert", "replace"))
    if kind == "delete" and len(mutant) > 1:
        del mutant[where]
    elif kind == "insert":
        mutant.insert(where, rng.choice(terminals))
    else:
        mutant[where] = rng.choice(terminals)
    return mutant


def _parse_short(rng: random.Random):
    requests = []
    for name, engine in SHORT_GRAMMARS:
        grammar = corpus.load(name)
        generator = SentenceGenerator(grammar, seed=rng.randrange(1 << 30))
        augmented = grammar.augmented()
        terminals = [t.name for t in augmented.terminals if t is not augmented.eof]
        cyk = CykRecognizer(grammar)
        made = 0
        for _ in range(SHORT_PER_GRAMMAR * 50):
            if made == SHORT_PER_GRAMMAR:
                break
            target = SHORT_TARGETS[made % len(SHORT_TARGETS)]
            tokens = [s.name for s in generator.sentence(target)]
            if not 0 < len(tokens) <= SHORT_MAX_TOKENS:
                continue
            made += 1
            if made % SHORT_MUTANT_EVERY == 0:
                tokens = _mutate(tokens, terminals, rng)
                requests.append(_parse_request(name, engine, tokens, cyk.accepts(tokens)))
            else:
                requests.append(_parse_request(name, engine, tokens, True))
        if made < SHORT_PER_GRAMMAR:
            raise RuntimeError(f"{name}: only {made} sentences of 1..{SHORT_MAX_TOKENS} tokens")
    rng.shuffle(requests)
    return _parse_warmup(SHORT_GRAMMARS), requests


def _parse_long(rng: random.Random):
    requests = []
    generators = {}
    for _ in range(LONG_VARIANTS):
        for name, engine, length in LONG_INPUTS:
            if name not in generators:
                generators[name] = SentenceGenerator(
                    corpus.load(name), seed=rng.randrange(1 << 30)
                )
            tokens: List[str] = []
            while len(tokens) < length:
                tokens.extend(s.name for s in generators[name].sentence(40))
            requests.append(_parse_request(name, engine, tokens, True))
    return _parse_warmup([(n, e) for n, e, _ in LONG_INPUTS]), requests


# -- compile-cold ------------------------------------------------------------

#: The size ladder, about 20 to 1000 LR(0) states: nine small rungs (at
#: most ~110 states) and six large ones, three of them random grammars
#: the seed draws within a state band; the seed also draws the symbol
#: names.  A pass sends the ladder three times over, in a fixed
#: small/large alternation, so ``latency_p50_ms`` falls well inside the
#: small rungs and ``latency_p95_ms`` on the largest one (a fifteenth of
#: the requests), whatever the seed.
LADDER_FAMILIES = (
    (families.nullable_chain_family, 12),
    (families.expression_family, 4),
    (families.unit_chain_family, 8),
    (families.context_family, 10),
    (families.state_explosion_family, 5),
    (families.keyword_statement_family, 10),
    (families.context_family, 30),
    (families.keyword_statement_family, 20),
    (families.expression_family, 12),
    (families.keyword_statement_family, 60),
    (families.state_explosion_family, 8),
    (families.keyword_statement_family, 200),
)
#: (nonterminals, terminals, lowest, highest LR(0) state count).  Among
#: random grammars of one state band the build cost still varies
#: fivefold; it follows the table's artifact size, so the rungs are also
#: held to a band of artifact bytes.
LADDER_RANDOM = ((40, 20, 200, 260),) * 3
LADDER_RANDOM_BYTES = (62000, 74000)
LADDER_COPIES = 3


def _fresh_text(grammar, tag: str) -> str:
    """Arrow text of *grammar* with its start symbol renamed to carry
    *tag* and the pass placeholder."""
    start = grammar.start.name
    renamed = f"{start}_{tag}{PASS_MARK}"
    lines = []
    for line in write_arrow(grammar).splitlines():
        lines.append(" ".join(renamed if word == start else word for word in line.split(" ")))
    return "\n".join(lines) + "\n"


def _banded_random(rng: random.Random, nonterminals, terminals, low, high):
    least, most = LADDER_RANDOM_BYTES
    for _ in range(400):
        grammar = random_grammar(
            rng.randrange(1 << 30), n_nonterminals=nonterminals,
            n_terminals=terminals, max_alternatives=4, max_rhs_len=5,
        )
        augmented = grammar.augmented()
        if not low <= len(ReferenceLR0Automaton(augmented)) <= high:
            continue
        if least <= len(table_to_bytes(build_lalr_table(augmented))) <= most:
            return grammar
    raise RuntimeError(f"no random grammar with {low}..{high} states "
                       f"and {least}..{most} artifact bytes")


def _compile_cold(rng: random.Random):
    small = [family(n) for family, n in LADDER_FAMILIES[:9]]
    large = [family(n) for family, n in LADDER_FAMILIES[9:]]
    large[1:1] = [_banded_random(rng, *knobs) for knobs in LADDER_RANDOM]
    grammars = small[:3]
    for pair in zip(large, small[3:]):
        grammars.extend(pair)
    tag = "s%04d" % rng.randrange(10000)
    rungs = []
    for grammar in grammars:
        augmented = grammar.augmented()
        merged = MergedLr1Analysis(augmented)
        reference = build_lalr_table(augmented, lookahead_table=merged.lookahead_table())
        summary = reference.conflict_summary()
        expect = {
            "states": len(ReferenceLR0Automaton(augmented)),
            "deterministic": summary["shift_reduce"] + summary["reduce_reduce"] == 0,
            "conflicts": {
                "shift_reduce": summary["shift_reduce"],
                "reduce_reduce": summary["reduce_reduce"],
                "resolved": summary["resolved"],
            },
        }
        rungs.append((grammar, expect, sum(1 + len(p.rhs) for p in grammar.productions)))
    requests = []
    for copy in range(LADDER_COPIES):
        for index, (grammar, expect, symbols) in enumerate(rungs):
            text = _fresh_text(grammar, f"{tag}c{copy}r{index}")
            payload = {"grammar": text, "name": grammar.name}
            requests.append(Request("/compile", payload, symbols, expect))
    return [], requests


# -- edit-session ------------------------------------------------------------

#: Sessions and the (production, rhs position) each edit ring rewrites:
#: the least-work splice site `repro.bench.incremental.find_splice_edit`
#: picks for each grammar.  That search probes up to 2000 candidate
#: edits per grammar, too slow to repeat on every run; `_edit_ring`
#: checks that every edit of the ring still splices.
EDIT_SITES = {
    "toy_java": (6, 0),
    "algol_like": (16, 0),
    "mini_c": (9, 1),
    "mini_pascal_det": (2, 0),
}
#: Versions per ring.  The session memo keeps 8 superseded bundles, so a
#: ring of more than 9 versions never revisits a memoized grammar.
EDIT_RING = 16


def _edit_ring(name: str, rng: random.Random) -> List[List[str]]:
    """*EDIT_RING* right-hand sides for the site of *name*, each a splice
    from the previous one, the last one back to the first too."""
    grammar = corpus.load(name).augmented()
    index, position = EDIT_SITES[name]
    rhs = [s.name for s in grammar.productions[index].rhs]
    base = rhs[position]
    candidates = [t.name for t in grammar.terminals if t is not grammar.eof and t.name != base]
    rng.shuffle(candidates)
    session = AnalysisSession(grammar, memo_size=0)
    current = grammar
    ring = []
    for terminal in candidates:
        version = rhs[:position] + [terminal] + rhs[position + 1:]
        edited = replace_rhs(current, index, version)
        if session.update(edited).strategy == "splice":
            ring.append(version)
            current = edited
            if len(ring) == EDIT_RING:
                break
        else:
            session.update(current)
    if len(ring) < EDIT_RING:
        raise RuntimeError(f"{name}: only {len(ring)} splicing edits at {EDIT_SITES[name]}")
    check = AnalysisSession(grammar, memo_size=0)
    for version in ring + ring[:1]:
        report = check.update(replace_rhs(check.grammar, index, version))
        if report.strategy != "splice":
            raise RuntimeError(f"{name}: ring edit {version} is a {report.strategy}")
    return ring


def _edit_session(rng: random.Random):
    warmup = []
    rings = {}
    for name, (index, _) in EDIT_SITES.items():
        grammar = corpus.load(name).augmented()
        warmup.append(Request(
            "/analyze", {"session": name, "corpus": name}, 0,
            {"session": name, "states": len(LR0Automaton(grammar).states)},
        ))
        rings[name] = [
            (version, len(LR0Automaton(replace_rhs(grammar, index, version)).states))
            for version in _edit_ring(name, rng)
        ]
    requests = []
    for step in range(EDIT_RING):
        for name, (index, _) in EDIT_SITES.items():
            version, states = rings[name][step]
            edit = {"op": "set", "index": index, "rhs": version}
            requests.append(Request(
                "/analyze", {"session": name, "edits": [edit]}, len(version),
                {"session": name, "states": states}, splice=True,
            ))
    return warmup, requests

