"""The ``hotloop`` bench scenario: the engine's token loop over the
compiled table.

Per grammar, builds one LALR table, replays a deterministic token
workload (seed-0 generated sentences, tiled to a few thousand tokens)
through :class:`~repro.parser.engine.Parser`, and reports tokens/second
— **informational**, it depends on the runner — alongside
machine-independent counters that are pure functions of the grammar and
the workload:

- ``states``, ``action_cells``, ``populated_cells``, ``default_states``
  — the specialization's shape (a default reduction may appear only on
  fully-uniform reduce rows, so this count moves exactly when the
  grammar or the guard does);
- ``workload_tokens``, ``workload_shifts``, ``workload_reduces`` — the
  replayed work (``tests/test_specialize.py`` pins it against the parse
  trees; this scenario drift-checks the totals).

Drift in them means the compiled table's shape or the engine's work
changed::

    repro bench hotloop --baseline BENCH_hotloop.json
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from ..analysis.derive import SentenceGenerator
from ..core import instrument
from ..grammars import corpus
from ..parser import Parser
from ..tables import build_lalr_table, specialized_view

#: Corpus grammars spanning table sizes.  mini_c keeps its dangling-else
#: shift/reduce conflict; the bench parses it with the yacc-default
#: winner (shift), as the baseline was recorded.
DEFAULT_GRAMMARS = ("expr", "json", "mini_c", "toy_java")

#: The workload tiles seed-0 sentences until at least this many tokens.
MIN_WORKLOAD_TOKENS = 2000

#: Timed replays of the workload; the best one counts.
REPEATS = 1


def workload(grammar) -> "List[List[str]]":
    """The deterministic token workload: seed-0 sentences, tiled."""
    sentences = SentenceGenerator(grammar, seed=0).sentences(8, budget=40)
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


def _tokens_per_second(parser: Parser, streams) -> float:
    # accepts() drives the same loop as parse() with a constant-folding
    # semantic callback, so the measurement isolates the engine rather
    # than Node allocation.
    total_tokens = sum(len(stream) for stream in streams)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for stream in streams:
            parser.accepts(stream)
        best = min(best, time.perf_counter() - start)
    return total_tokens / best if best > 0 else 0.0


def hotloop_snapshot(names: "Sequence[str]" = DEFAULT_GRAMMARS) -> Dict:
    """The ``hotloop`` scenario: one entry per corpus grammar."""
    grammars: "Dict[str, Dict]" = {}
    for name in names:
        grammar = corpus.load(name).augmented()
        table = build_lalr_table(grammar)
        streams = workload(grammar)

        parser = Parser(table, allow_conflicts=True)
        # One profiled replay pins the workload counters.
        with instrument.profile() as collector:
            for stream in streams:
                parser.parse(stream)
        stats = specialized_view(table).specialization_stats()
        grammars[name] = {
            "counters": {
                "states": stats["states"],
                "action_cells": stats["action_cells"],
                "populated_cells": stats["populated_cells"],
                "default_states": stats["default_states"],
                "workload_tokens": collector.counters.get("parse.tokens", 0),
                "workload_shifts": collector.counters.get("parse.shifts", 0),
                "workload_reduces": collector.counters.get("parse.reduces", 0),
            },
            "throughput": {
                "tokens_per_sec": _tokens_per_second(parser, streams),
            },
        }
    return grammars
