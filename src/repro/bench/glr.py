"""GLR bench: the generalized engine vs LALR and CYK on one workload.

Per grammar, builds one LALR table, replays a deterministic token
workload (seed-0 generated sentences, tiled to a few hundred tokens)
through three recognizers — the deterministic engine (with
``allow_conflicts=True`` so conflicted grammars run on their
yacc-default winners), the :class:`~repro.parser.glr.GlrParser` over the
same table's conflict-list view, and the cubic
:class:`~repro.parser.cyk.CykRecognizer` — and reports tokens/second
for each plus the GLR/LALR overhead ratio.  Throughput is
**informational** (it depends on the runner); the drift check guards
the machine-independent counters, which are pure functions of the
grammar and the workload:

- ``unresolved_conflicts`` — how nondeterministic the table is;
- ``workload_tokens``, ``gss_nodes``, ``gss_edges``, ``sppf_nodes``,
  ``sppf_families``, ``reductions``, ``shifts`` — the GLR engine's
  exact work, summed over the replay.  On a deterministic table the
  GSS is a chain, so ``gss_edges == gss_nodes - streams`` moves only
  when the grammar (or the engine) changes; on conflicted tables these
  totals pin the degree of stack splitting.

``--baseline`` fails on any counter drift::

    python -m repro.bench.glr --write-baseline BENCH_glr.json
    python -m repro.bench.glr --baseline BENCH_glr.json
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Sequence, Tuple

from ..analysis.derive import SentenceGenerator
from ..grammars import corpus
from ..parser import CykRecognizer, GlrParser, Parser
from ..tables import build_lalr_table

GLR_BASELINE_FORMAT = 1

#: Two deterministic grammars (GSS-degenerates-to-a-chain overhead) and
#: two conflicted ones (real stack splitting).
DEFAULT_GRAMMARS = ["expr", "json", "dangling_else", "lr1_not_lalr"]

#: The workload tiles seed-0 sentences until at least this many tokens.
#: Smaller than the hot-loop bench: CYK replays the same streams cubically.
MIN_WORKLOAD_TOKENS = 400

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


def _tokens_per_second(accepts, streams, repeats: int) -> float:
    total_tokens = sum(len(stream) for stream in streams)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for stream in streams:
            accepts(stream)
        best = min(best, time.perf_counter() - start)
    return total_tokens / best if best > 0 else 0.0


def glr_snapshot(names: "Sequence[str]", repeats: int = 3) -> Dict:
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

        lalr_tps = _tokens_per_second(lalr.accepts, streams, repeats)
        glr_tps = _tokens_per_second(glr.accepts, streams, repeats)
        cyk_tps = _tokens_per_second(cyk.accepts, streams, repeats)
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
    return {"format": GLR_BASELINE_FORMAT, "grammars": grammars}


def compare_glr_baseline(
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
    """``python -m repro.bench.glr`` — see the module docstring."""
    import argparse

    parser = argparse.ArgumentParser(prog="repro.bench.glr")
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

    snapshot = glr_snapshot(args.grammars, repeats=args.repeats)

    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.write_baseline} ({len(snapshot['grammars'])} grammars)")
        return 0

    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        rows, drift = compare_glr_baseline(snapshot, baseline)
        print(f"{'grammar':14s} {'metric':22s} {'baseline':>14s} {'now':>14s}")
        for name, metric, base_value, value in rows:
            print(f"{name:14s} {metric:22s} {base_value:14,.2f} {value:14,.2f}")
        if drift:
            print("GLR counter drift (engine or workload changed?):")
            for message in drift:
                print(f"  {message}")
            return 1
        print("GLR counters match the baseline")
        return 0

    for name, entry in snapshot["grammars"].items():
        counters = entry["counters"]
        throughput = entry["throughput"]
        print(
            f"{name:14s} conflicts={counters['unresolved_conflicts']:<3d} "
            f"lalr={throughput['lalr_tokens_per_sec']:11,.0f} tok/s "
            f"glr={throughput['glr_tokens_per_sec']:11,.0f} tok/s "
            f"cyk={throughput['cyk_tokens_per_sec']:9,.0f} tok/s "
            f"(glr overhead {throughput['glr_overhead']:.1f}x)"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
