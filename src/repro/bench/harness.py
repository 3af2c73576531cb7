"""Measurement utilities for the experiment suite, and the ``core`` scenario.

The paper reports per-grammar rows (timings on 1979 hardware plus
derived counts).  Wall-clock numbers do not transfer across 45 years of
hardware, so every experiment here reports **both**:

- wall time via ``time.perf_counter`` (median of repeats), and
- machine-independent operation counts (set unions, relation edges,
  automaton sizes) exposed by the analyses themselves.

The *shape* — which method is cheapest, how ratios move with grammar
size — is the reproducible claim; EXPERIMENTS.md records it.

The ``core`` bench scenario (:func:`bench_snapshot`) pins the lookahead
analysis in ``BENCH_lr0_kernel.json``::

    repro bench core --baseline BENCH_lr0_kernel.json

Its wall times are informational.  Drift in its counters — relation
edges, Digraph unions, look-ahead bits, SCC sizes, the grammar's
content fingerprint — means the *algorithm* (or the grammar) changed,
not the hardware.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

from ..automaton.lr0 import LR0Automaton
from ..baselines.merge_lr1 import MergedLr1Analysis
from ..baselines.propagation import PropagationAnalysis
from ..baselines.slr import SlrAnalysis
from ..core import instrument
from ..core.budget import Budget, BudgetExceeded
from ..core.lalr import LalrAnalysis
from ..grammar.fingerprint import grammar_fingerprint
from ..grammar.grammar import Grammar


def time_callable(fn: Callable[[], object], repeats: int = 5) -> float:
    """Median wall-clock seconds of *fn* over *repeats* runs."""
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


#: The lookahead methods compared throughout: name -> analysis factory.
#: Each factory takes (grammar, shared LR(0) automaton) so the
#: automaton cost — common to all LR(0)-based methods — is excluded,
#: exactly as the paper charges only the lookahead phase to each method.
METHODS: "Dict[str, Callable[..., object]]" = {
    "deremer_pennello": lambda g, a: LalrAnalysis(g, a),
    "propagation": lambda g, a: PropagationAnalysis(g, a),
    "lr1_merge": lambda g, a: MergedLr1Analysis(g, a),
    "slr_follow": lambda g, a: SlrAnalysis(g, a).lookahead_table(),
}


def measure_methods(
    grammar: Grammar,
    methods: "Sequence[str] | None" = None,
    repeats: int = 5,
) -> Dict[str, float]:
    """Median lookahead-computation time per method for one grammar."""
    grammar = grammar.augmented()
    automaton = LR0Automaton(grammar)
    chosen = methods or list(METHODS)
    return {
        name: time_callable(lambda n=name: METHODS[n](grammar, automaton), repeats)
        for name in chosen
    }


def grammar_row(grammar: Grammar) -> Dict[str, int]:
    """The Table-1 row for one grammar: sizes of everything."""
    grammar = grammar.augmented()
    automaton = LR0Automaton(grammar)
    analysis = LalrAnalysis(grammar, automaton)
    row: Dict[str, int] = {}
    row.update(grammar.stats())
    row.update(automaton.stats())
    row.update(analysis.relations.stats())
    row["reads_sccs"] = len(analysis.reads_sccs)
    row["includes_sccs"] = len(analysis.includes_sccs)
    return row


def cost_row(grammar: Grammar) -> Dict[str, int]:
    """The Table-2 operation-count row for one grammar."""
    grammar = grammar.augmented()
    automaton = LR0Automaton(grammar)
    dp = LalrAnalysis(grammar, automaton)
    prop = PropagationAnalysis(grammar, automaton)
    merge = MergedLr1Analysis(grammar, automaton)
    lr1_states, lalr_states = merge.merged_state_count()
    return {
        "dp_unions": dp.stats.unions,
        "dp_edges": dp.stats.edges,
        "prop_links": prop.cost_summary()["propagation_links"],
        "prop_sweeps": prop.sweeps,
        "prop_unions": prop.unions,
        "lr1_states": lr1_states,
        "lalr_states": lalr_states,
    }


def speedup(times: Dict[str, float], baseline: str, method: str) -> float:
    """times[baseline] / times[method] — >1 means *method* is faster."""
    return times[baseline] / times[method] if times[method] else float("inf")


class Timer:
    """Context-manager stopwatch: ``with Timer() as t: ...; t.seconds``."""

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        self.seconds = 0.0
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start


def sweep(
    sizes: Sequence[int],
    family: Callable[[int], Grammar],
    measure: Callable[[Grammar], Dict[str, float]],
) -> "List[Tuple[int, Dict[str, float]]]":
    """Run *measure* over *family* at each size (the Figure workloads)."""
    return [(n, measure(family(n))) for n in sizes]


def profile_pipeline(
    grammar: Grammar,
    method: str = "lalr1",
    tokens: "Sequence | None" = None,
    cache: "object | None" = None,
) -> "instrument.ProfileCollector":
    """Profile the full pipeline for *grammar* and return the collector.

    Runs grammar -> LR(0) -> relations -> Digraph x2 -> LA -> table fill
    (via *cache* when given a :class:`repro.tables.cache.TableCache`),
    plus one engine run over *tokens* when provided.  The result's
    ``as_dict()`` is the machine-readable profile the benchmarks diff
    across commits; its ``format()`` is the CLI ``--profile`` breakdown.
    """
    from ..parser.engine import Parser
    from ..tables import build

    builders = {
        "lr0": build.build_lr0_table,
        "slr1": build.build_slr_table,
        "lalr1": build.build_lalr_table,
        "clr1": build.build_clr_table,
    }
    builder = builders[method]
    grammar = grammar.augmented()
    with instrument.profile() as collector:
        with instrument.span("pipeline"):
            if cache is not None:
                table = cache.load_or_build(grammar, method, builder)
            else:
                table = builder(grammar)
            if tokens is not None and table.is_deterministic:
                Parser(table).accepts(tokens)
    return collector


#: The grammars the ``core`` scenario measures by default: the entries of
#: ``BENCH_lr0_kernel.json``.
DEFAULT_GRAMMARS = ("expr", "json", "mini_c", "algol_like", "toy_java")

#: Timing repetitions per grammar (the lookahead time is a median).
REPEATS = 1

#: Per-grammar analysis deadline in seconds; 0 means none.  A grammar
#: that blows it yields a ``skipped`` entry instead of hanging the sweep.
BUDGET_SECONDS = 0.0


def load_named(name: str) -> "Tuple[str, Grammar]":
    """(entry name, grammar) for a bench name: a corpus grammar name,
    optionally ``corpus:``-prefixed, or a grammar file path."""
    import os

    from ..grammar.reader import load_grammar_file
    from ..grammars import corpus

    if name.startswith("corpus:"):
        name = name[len("corpus:"):]
    elif name not in corpus.names():
        return os.path.basename(name), load_grammar_file(name)
    return name, corpus.load(name)


def bench_snapshot(names: "Sequence[str]" = DEFAULT_GRAMMARS) -> Dict:
    """The ``core`` scenario: one entry per grammar.

    Per grammar: the median DeRemer–Pennello lookahead wall time (the
    Table-2 workload) and the per-phase instrument span totals of one
    full pipeline run, both informational, plus the machine-independent
    cost counters and the grammar's content fingerprint, which gate.
    """
    return {
        name: _snapshot_entry(grammar)
        for name, grammar in map(load_named, names)
    }


def _snapshot_entry(grammar: Grammar) -> Dict:
    """One grammar's entry (see :func:`bench_snapshot`)."""
    grammar = grammar.augmented()
    try:
        budget = Budget(timeout=BUDGET_SECONDS) if BUDGET_SECONDS else None
        automaton = LR0Automaton(grammar, budget=budget)
        seconds = time_callable(
            lambda: LalrAnalysis(grammar, automaton, budget=budget), REPEATS
        )
        analysis = LalrAnalysis(grammar, automaton, budget=budget)
        collector = profile_pipeline(grammar)
    except BudgetExceeded as error:
        return {"skipped": f"budget exceeded: {error.describe()}"}
    # Same-name-different-grammar is the silent killer of counter
    # diffs; the content fingerprint, gated like a counter, catches it.
    counters: Dict[str, object] = dict(analysis.cost_summary())
    counters["fingerprint"] = grammar_fingerprint(grammar)
    return {
        "lookahead_seconds": seconds,
        "phases": collector.phase_totals(),
        "counters": counters,
    }
