"""Table-artifact benchmarks: artifact sizes, packing and load latency.

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
:mod:`repro.bench.harness` — the baseline file commits to the
**machine-independent** figures only: state counts, dense/populated/comb
cell counts, and the byte sizes of both artifact formats, all of which
are pure functions of the grammar.  ``--baseline`` fails on any drift in
those; the timing columns are printed for context.

CLI::

    python -m repro.bench.artifacts corpus:expr corpus:json \
        --write-baseline BENCH_table_artifacts.json
    python -m repro.bench.artifacts corpus:expr corpus:json \
        --baseline BENCH_table_artifacts.json
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import time
from typing import Dict, List, Sequence, Tuple

from ..grammar.grammar import Grammar
from ..parser.engine import Parser
from ..tables.binfmt import load_binary_table, save_binary_table, table_to_bytes
from ..tables.build import build_lalr_table
from ..tables.displace import displace
from ..tables.serialize import load_table, save_table, table_to_dict
from .harness import _load_spec, time_callable

#: Format tag for ``BENCH_table_artifacts.json``.
ARTIFACT_BASELINE_FORMAT = 1

#: Sentence workload knobs (deterministic: seeded generator).
WORKLOAD_SENTENCES = 24
WORKLOAD_BUDGET = 30


def _workload(grammar: Grammar) -> "List[list]":
    from ..analysis.derive import SentenceGenerator

    generator = SentenceGenerator(grammar, seed=0)
    return generator.sentences(WORKLOAD_SENTENCES, budget=WORKLOAD_BUDGET)


def _throughput(parser: Parser, sentences: "List[list]", repeats: int) -> float:
    """Median tokens/sec of *parser* over the sentence workload."""
    total_tokens = sum(len(s) for s in sentences) or 1
    swallow = lambda production, children: None

    def run() -> None:
        for sentence in sentences:
            parser.parse_with_actions(sentence, swallow)

    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        samples.append(time.perf_counter() - start)
    seconds = statistics.median(samples)
    return total_tokens / seconds if seconds else float("inf")


def _cold_load(
    save, load, table, grammar: Grammar, suffix: str, repeats: int
) -> "Tuple[float, int]":
    """(median load seconds, artifact bytes) through a real temp file."""
    descriptor, path = tempfile.mkstemp(suffix=suffix)
    os.close(descriptor)
    try:
        save(table, path)
        size = os.path.getsize(path)
        seconds = time_callable(lambda: load(path, grammar), repeats=repeats)
        return seconds, size
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass


def snapshot_entry(grammar: Grammar, repeats: int = 5) -> Dict:
    """One grammar's artifact row: counters asserted, timings reported."""
    grammar = grammar.augmented()
    table = build_lalr_table(grammar)
    if not table.is_deterministic:
        return {"skipped": "table has unresolved conflicts"}

    stats = displace(table).packing_stats()
    json_bytes = len(json.dumps(table_to_dict(table)).encode("utf-8"))
    bin_bytes = len(table_to_bytes(table))
    tokens_per_sec = _throughput(Parser(table), _workload(grammar), repeats)
    json_seconds, _ = _cold_load(
        save_table, load_table, table, grammar, ".json", repeats
    )
    bin_seconds, _ = _cold_load(
        save_binary_table, load_binary_table, table, grammar, ".rtb", repeats
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


def artifacts_snapshot(
    named_grammars: "Sequence[Tuple[str, Grammar]]", repeats: int = 5
) -> Dict:
    """The machine-readable snapshot for baseline comparison."""
    return {
        "format": ARTIFACT_BASELINE_FORMAT,
        "grammars": {
            name: snapshot_entry(grammar, repeats)
            for name, grammar in named_grammars
        },
    }


def compare_artifacts_baseline(
    current: Dict, baseline: Dict
) -> "Tuple[List[List], List[str]]":
    """Diff a snapshot against a baseline.

    Returns ``(rows, drift)``: display rows ``[grammar, metric, baseline,
    current]`` for the informational timings, and drift messages for any
    machine-independent counter that moved — callers fail on drift.
    """
    rows: List[List] = []
    drift: List[str] = []
    base_grammars = baseline.get("grammars", {})
    for name, entry in current.get("grammars", {}).items():
        base = base_grammars.get(name)
        if base is None:
            drift.append(f"{name}: not present in baseline")
            continue
        if "counters" not in entry or "counters" not in base:
            # A grammar skipped on *both* sides for the same reason
            # (e.g. unresolved conflicts) is agreement, not drift.
            if entry.get("skipped") and entry.get("skipped") == base.get("skipped"):
                continue
            skipped = entry.get("skipped") or base.get("skipped") or "no counters"
            drift.append(f"{name}: {skipped}")
            continue
        for key, base_value in sorted(base["counters"].items()):
            value = entry["counters"].get(key)
            if value != base_value:
                drift.append(f"{name}: counter {key} {base_value} -> {value}")
        rows.append([
            name,
            "tokens/sec",
            base.get("tokens_per_sec", 0.0),
            entry["tokens_per_sec"],
        ])
        base_load = base.get("cold_load_seconds", {})
        for fmt, seconds in entry.get("cold_load_seconds", {}).items():
            rows.append([
                name,
                f"cold-load ms[{fmt}]",
                base_load.get(fmt, 0.0) * 1e3,
                seconds * 1e3,
            ])
    return rows, drift


def main(argv: "Sequence[str] | None" = None) -> int:
    """``python -m repro.bench.artifacts`` — see the module docstring."""
    import argparse

    parser = argparse.ArgumentParser(prog="repro.bench.artifacts")
    parser.add_argument("grammars", nargs="+",
                        help="grammar files or corpus:<name> specs")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--baseline", default="",
                        help="compare against a snapshot JSON "
                             "(exit 1 on size/packing-counter drift)")
    parser.add_argument("--write-baseline", default="",
                        help="write a snapshot JSON instead of reporting")
    args = parser.parse_args(argv)

    named = [_load_spec(spec) for spec in args.grammars]

    if args.write_baseline:
        snapshot = artifacts_snapshot(named, repeats=args.repeats)
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.write_baseline} ({len(snapshot['grammars'])} grammars)")
        return 0

    snapshot = artifacts_snapshot(named, repeats=args.repeats)

    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        rows, drift = compare_artifacts_baseline(snapshot, baseline)
        print(f"{'grammar':14s} {'metric':24s} {'baseline':>12s} {'now':>12s}")
        for name, metric, base_value, value in rows:
            print(f"{name:14s} {metric:24s} {base_value:12,.1f} {value:12,.1f}")
        if drift:
            print("artifact-counter drift (representation changed?):")
            for message in drift:
                print(f"  {message}")
            return 1
        print("artifact counters match the baseline")
        return 0

    for name, entry in snapshot["grammars"].items():
        print(f"== {name} ==")
        if "counters" not in entry:
            print(f"  skipped: {entry.get('skipped')}")
            continue
        for key, value in entry["counters"].items():
            print(f"  {key:20s} {value:>12,}")
        print(f"  {'tokens/sec':20s} {entry['tokens_per_sec']:>12,.0f}")
        for fmt, seconds in entry["cold_load_seconds"].items():
            print(f"  cold-load[{fmt}]{'':8s} {seconds * 1e6:>10,.1f} us")
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
