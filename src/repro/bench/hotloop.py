"""Hot-loop bench: the engine's token loop over the compiled table.

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
  trees; this bench drift-checks the totals).

``--baseline`` fails on any counter drift::

    python -m repro.bench.hotloop --write-baseline BENCH_hotloop.json
    python -m repro.bench.hotloop --baseline BENCH_hotloop.json
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Sequence, Tuple

from ..analysis.derive import SentenceGenerator
from ..core import instrument
from ..grammars import corpus
from ..parser import Parser
from ..tables import build_lalr_table, specialized_view

HOTLOOP_BASELINE_FORMAT = 1

#: Corpus grammars spanning table sizes.  mini_c keeps its dangling-else
#: shift/reduce conflict; the bench parses it with the yacc-default
#: winner (shift), as the baseline was recorded.
DEFAULT_GRAMMARS = ["expr", "json", "mini_c", "toy_java"]

#: The workload tiles seed-0 sentences until at least this many tokens.
MIN_WORKLOAD_TOKENS = 2000


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


def _tokens_per_second(parser: Parser, streams, repeats: int) -> float:
    # accepts() drives the same loop as parse() with a constant-folding
    # semantic callback, so the measurement isolates the engine rather
    # than Node allocation.
    total_tokens = sum(len(stream) for stream in streams)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for stream in streams:
            parser.accepts(stream)
        best = min(best, time.perf_counter() - start)
    return total_tokens / best if best > 0 else 0.0


def hotloop_snapshot(
    names: "Sequence[str]", repeats: int = 3
) -> Dict:
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
                "tokens_per_sec": _tokens_per_second(parser, streams, repeats),
            },
        }
    return {"format": HOTLOOP_BASELINE_FORMAT, "grammars": grammars}


def compare_hotloop_baseline(
    current: Dict, baseline: Dict
) -> "Tuple[List[List], List[str]]":
    """``(rows, drift)``: informational throughput rows, counter drift."""
    rows: "List[List]" = []
    drift: "List[str]" = []
    if current.get("format") != baseline.get("format"):
        drift.append(
            f"baseline format {baseline.get('format')!r} != "
            f"current {current.get('format')!r}"
        )
    base_grammars = baseline.get("grammars", {})
    for name, entry in current.get("grammars", {}).items():
        base = base_grammars.get(name)
        if base is None:
            drift.append(f"{name}: not present in baseline")
            continue
        for key, base_value in sorted(base.get("counters", {}).items()):
            value = entry["counters"].get(key)
            if value != base_value:
                drift.append(f"{name}: counter {key} {base_value} -> {value}")
        base_throughput = base.get("throughput", {})
        for metric, value in sorted(entry.get("throughput", {}).items()):
            rows.append([name, metric, base_throughput.get(metric, 0.0), value])
    for name in base_grammars:
        if name not in current.get("grammars", {}):
            drift.append(f"{name}: in baseline but not measured")
    return rows, drift


def main(argv: "Sequence[str] | None" = None) -> int:
    """``python -m repro.bench.hotloop`` — see the module docstring."""
    import argparse

    parser = argparse.ArgumentParser(prog="repro.bench.hotloop")
    parser.add_argument("grammars", nargs="*", default=DEFAULT_GRAMMARS,
                        help="corpus grammar names "
                             f"(default: {' '.join(DEFAULT_GRAMMARS)})")
    parser.add_argument("--repeats", type=int, default=3, metavar="N",
                        help="timing repetitions, best-of (default 3)")
    parser.add_argument("--baseline", default="",
                        help="compare against a snapshot JSON "
                             "(exit 1 on counter drift)")
    parser.add_argument("--write-baseline", default="",
                        help="write a snapshot JSON instead of reporting")
    args = parser.parse_args(argv)

    snapshot = hotloop_snapshot(args.grammars, repeats=args.repeats)

    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.write_baseline} ({len(snapshot['grammars'])} grammars)")
        return 0

    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        rows, drift = compare_hotloop_baseline(snapshot, baseline)
        print(f"{'grammar':12s} {'metric':28s} {'baseline':>14s} {'now':>14s}")
        for name, metric, base_value, value in rows:
            print(f"{name:12s} {metric:28s} {base_value:14,.0f} {value:14,.0f}")
        if drift:
            print("hot-loop counter drift (specialization changed?):")
            for message in drift:
                print(f"  {message}")
            return 1
        print("hot-loop counters match the baseline")
        return 0

    for name, entry in snapshot["grammars"].items():
        counters = entry["counters"]
        throughput = entry["throughput"]
        print(
            f"{name:12s} states={counters['states']:<5d} "
            f"defaults={counters['default_states']:<4d} "
            f"{throughput['tokens_per_sec']:12,.0f} tok/s"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
