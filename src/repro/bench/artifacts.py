"""The ``artifacts`` bench scenario: artifact sizes, packing and load latency.

A parse table has one stored form — the flat code arrays of
:class:`~repro.tables.table.ParseTable` — and two on-disk artifacts (JSON
and binary), plus the comb-packed size figures of
:class:`~repro.tables.displace.DisplacedTable`.  This module measures:

- **engine throughput** (tokens/sec) of the one engine loop over the
  table, on a deterministic sentence workload, and
- **cold-load latency**: JSON parse + row rebuild vs the binary loader's
  verified copy (header and CRC checks, then the two code sections
  copied into arrays; no cell is decoded).

Wall-clock figures do not transfer across machines, so — exactly like
the ``core`` scenario — the baseline commits to the **machine-independent**
figures as counters: state counts, dense/populated/comb cell counts, and
the byte sizes of both artifact formats, all pure functions of the
grammar.  Drift in them means the table representation changed, and
``BENCH_table_artifacts.json`` must be regenerated deliberately::

    repro bench artifacts --baseline BENCH_table_artifacts.json
    repro bench artifacts --write-baseline BENCH_table_artifacts.json
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, List, Sequence, Tuple

from ..grammar.grammar import Grammar
from ..parser.engine import Parser
from ..tables.binfmt import load_binary_table, save_binary_table, table_to_bytes
from ..tables.build import build_lalr_table
from ..tables.displace import displace
from ..tables.serialize import load_table, save_table, table_to_dict
from .harness import load_named, time_callable

#: The grammars measured by default: the entries of
#: ``BENCH_table_artifacts.json``.
DEFAULT_GRAMMARS = ("expr", "json", "mini_c", "algol_like", "toy_java")

#: Timing repetitions (medians) for throughput and cold loads.
REPEATS = 1

#: Sentence workload knobs (deterministic: seeded generator).
WORKLOAD_SENTENCES = 24
WORKLOAD_BUDGET = 30


def _workload(grammar: Grammar) -> "List[list]":
    from ..analysis.derive import SentenceGenerator

    generator = SentenceGenerator(grammar, seed=0)
    return generator.sentences(WORKLOAD_SENTENCES, budget=WORKLOAD_BUDGET)


def _throughput(parser: Parser, sentences: "List[list]") -> float:
    """Median tokens/sec of *parser* over the sentence workload."""
    total_tokens = sum(len(s) for s in sentences) or 1
    swallow = lambda production, children: None

    def run() -> None:
        for sentence in sentences:
            parser.parse_with_actions(sentence, swallow)

    seconds = time_callable(run, REPEATS)
    return total_tokens / seconds if seconds else float("inf")


def _cold_load(
    save, load, table, grammar: Grammar, suffix: str
) -> "Tuple[float, int]":
    """(median load seconds, artifact bytes) through a real temp file."""
    descriptor, path = tempfile.mkstemp(suffix=suffix)
    os.close(descriptor)
    try:
        save(table, path)
        size = os.path.getsize(path)
        seconds = time_callable(lambda: load(path, grammar), REPEATS)
        return seconds, size
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass


def snapshot_entry(grammar: Grammar) -> Dict:
    """One grammar's artifact row: counters asserted, timings reported."""
    grammar = grammar.augmented()
    table = build_lalr_table(grammar)
    if not table.is_deterministic:
        return {"skipped": "table has unresolved conflicts"}

    stats = displace(table).packing_stats()
    json_bytes = len(json.dumps(table_to_dict(table)).encode("utf-8"))
    bin_bytes = len(table_to_bytes(table))
    tokens_per_sec = _throughput(Parser(table), _workload(grammar))
    json_seconds, _ = _cold_load(
        save_table, load_table, table, grammar, ".json"
    )
    bin_seconds, _ = _cold_load(
        save_binary_table, load_binary_table, table, grammar, ".rtb"
    )

    return {
        "counters": {
            "n_states": table.n_states,
            "dense_cells": stats["dense_cells"],
            "populated_cells": stats["populated_cells"],
            "comb_slots": stats["comb_slots"],
            "comb_gaps": stats["comb_gaps"],
            "stored_cells": stats["stored_cells"],
            "json_bytes": json_bytes,
            "bin_bytes": bin_bytes,
        },
        "tokens_per_sec": tokens_per_sec,
        "cold_load_seconds": {"json": json_seconds, "bin": bin_seconds},
    }


def artifacts_snapshot(names: "Sequence[str]" = DEFAULT_GRAMMARS) -> Dict:
    """The ``artifacts`` scenario: one entry per grammar."""
    return {
        name: snapshot_entry(grammar)
        for name, grammar in map(load_named, names)
    }
