"""The ``glr`` bench scenario: the generalized engine vs LALR and CYK.

Per grammar, builds one LALR table, replays a deterministic token
workload (seed-0 generated sentences, tiled to a few hundred tokens)
through three recognizers — the deterministic engine (with
``allow_conflicts=True`` so conflicted grammars run on their
yacc-default winners), the :class:`~repro.parser.glr.GlrParser` over the
same table's conflict-list view, and the cubic
:class:`~repro.parser.cyk.CykRecognizer` — and reports tokens/second
for each plus the GLR/LALR overhead ratio.  Throughput is
**informational** (it depends on the runner); the counters gate, and
they are pure functions of the grammar and the workload:

- ``unresolved_conflicts`` — how nondeterministic the table is;
- ``workload_tokens``, ``gss_nodes``, ``gss_edges``, ``sppf_nodes``,
  ``sppf_families``, ``reductions``, ``shifts`` — the GLR engine's
  exact work, summed over the replay.  On a deterministic table the
  GSS is a chain, so ``gss_edges == gss_nodes - streams`` moves only
  when the grammar (or the engine) changes; on conflicted tables these
  totals pin the degree of stack splitting.

Drift in them means the GLR engine or its workload changed::

    repro bench glr --baseline BENCH_glr.json
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from ..analysis.derive import SentenceGenerator
from ..grammars import corpus
from ..parser import CykRecognizer, GlrParser, Parser
from ..tables import build_lalr_table

#: Two deterministic grammars (GSS-degenerates-to-a-chain overhead) and
#: two conflicted ones (real stack splitting).
DEFAULT_GRAMMARS = ("expr", "json", "dangling_else", "lr1_not_lalr")

#: The workload tiles seed-0 sentences until at least this many tokens.
#: Smaller than the hot-loop bench: CYK replays the same streams cubically.
MIN_WORKLOAD_TOKENS = 400

#: Timed replays of the workload per recognizer; the best one counts.
REPEATS = 1

#: GLR stats accumulated across the replay (forest.stats keys).
_STAT_KEYS = (
    "gss_nodes",
    "gss_edges",
    "sppf_nodes",
    "sppf_families",
    "reductions",
    "shifts",
)


def workload(grammar) -> "List[List[str]]":
    """The deterministic token workload: seed-0 sentences, tiled."""
    sentences = SentenceGenerator(grammar, seed=0).sentences(8, budget=24)
    streams = [
        [symbol.name for symbol in sentence]
        for sentence in sentences
        if sentence
    ]
    if not streams:
        return []
    tiled: "List[List[str]]" = []
    total = 0
    while total < MIN_WORKLOAD_TOKENS:
        for stream in streams:
            tiled.append(stream)
            total += len(stream)
    return tiled


def _tokens_per_second(accepts, streams) -> float:
    total_tokens = sum(len(stream) for stream in streams)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for stream in streams:
            accepts(stream)
        best = min(best, time.perf_counter() - start)
    return total_tokens / best if best > 0 else 0.0


def glr_snapshot(names: "Sequence[str]" = DEFAULT_GRAMMARS) -> Dict:
    """The ``glr`` scenario: one entry per corpus grammar."""
    grammars: "Dict[str, Dict]" = {}
    for name in names:
        raw = corpus.load(name)
        grammar = raw.augmented()
        table = build_lalr_table(grammar)
        streams = workload(grammar)

        lalr = Parser(table, allow_conflicts=True)
        glr = GlrParser(table)
        cyk = CykRecognizer(raw)

        # One profiled GLR replay pins the work counters (the engine's
        # stats are a pure function of table + stream).
        totals = {key: 0 for key in _STAT_KEYS}
        tokens = 0
        for stream in streams:
            forest = glr.parse_forest(stream)
            tokens += forest.token_count
            for key in _STAT_KEYS:
                totals[key] += forest.stats[key]

        lalr_tps = _tokens_per_second(lalr.accepts, streams)
        glr_tps = _tokens_per_second(glr.accepts, streams)
        cyk_tps = _tokens_per_second(cyk.accepts, streams)
        counters = {
            "unresolved_conflicts": len(table.unresolved_conflicts),
            "workload_tokens": tokens,
        }
        counters.update(totals)
        grammars[name] = {
            "counters": counters,
            "throughput": {
                "lalr_tokens_per_sec": lalr_tps,
                "glr_tokens_per_sec": glr_tps,
                "cyk_tokens_per_sec": cyk_tps,
                "glr_overhead": lalr_tps / glr_tps if glr_tps else 0.0,
            },
        }
    return grammars
