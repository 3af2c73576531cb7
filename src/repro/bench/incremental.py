"""The ``incremental`` bench scenario: edit latency vs full rebuild.

For each corpus grammar this benchmark finds a deterministic
single-terminal substitution that the session machinery can splice
(no :class:`~repro.automaton.lr0_delta.IncrementalFallback`), then
measures the median wall-clock latency of

- a **full rebuild** of the edited grammar — LR(0) automaton, relations,
  both Digraph passes, LA sets and table, exactly what a one-shot tool
  redoes after every edit — against
- an **incremental update** — :meth:`AnalysisSession.update` splicing
  only the dirty states, relation rows, digraph regions and table rows.

The session memo is disabled for the measurement so every update is a
real splice (with the memo on, flipping back to a previously seen
grammar is a dictionary lookup — faster, but not what we are measuring).

Like the ``core`` scenario, wall times and the derived speedup are
informational.  The counters gate: the edit recipe itself
(``edit.production``, ``edit.position``, ``edit.replacement``), the
dirty-region size (``dirty_states`` of ``total_states``) and the
``phase.*`` counters of one instrumented splice (states respliced,
relation rows recomputed, table rows refilled, zero fallbacks).  Drift
in them means the splice machinery's behaviour changed without
``BENCH_incremental.json`` being regenerated deliberately::

    repro bench incremental --baseline BENCH_incremental.json
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..automaton.lr0 import LR0Automaton
from ..core import instrument
from ..core.lalr import LalrAnalysis
from ..grammar.delta import replace_rhs
from ..grammar.grammar import Grammar
from ..pipeline import AnalysisSession
from ..tables.build import build_lalr_table
from .harness import load_named

#: The default workload: the larger corpus grammars (the small ones
#: finish either way in microseconds and time mostly interpreter noise).
DEFAULT_GRAMMARS = ("mini_c", "toy_java", "algol_like", "mini_pascal_det")

#: Timed full rebuilds per grammar (and twice as many timed updates).
REPEATS = 3


#: Probe budget for :func:`find_splice_edit` — bounds bench startup on
#: grammars whose candidate space is large.
_MAX_PROBES = 2000

#: Counters summed into the per-candidate work proxy.  Together they
#: cover every layer a splice touches (states respliced, relation rows
#: recomputed, walks replayed, table rows refilled) — an edit minimal
#: under this sum is minimal in actual splice latency, without timing
#: anything (the probe scan stays deterministic across machines).
_WORK_COUNTERS = (
    "phase.lr0.states_recomputed",
    "phase.relations.rows_recomputed",
    "phase.relations.walks_rewalked",
    "phase.table.rows_refilled",
)

#: Probe-scan early stop: two dirty states, one relation row, one walk
#: and one table row is the practical floor, so a candidate at or below
#: this total cannot be beaten by enough to matter.
_WORK_FLOOR = 6


def find_splice_edit(grammar: Grammar) -> "Optional[Tuple[int, int, str]]":
    """A ``(production index, rhs position, replacement name)``
    single-terminal substitution the session splices — the candidate
    with the least total splice work found in a deterministic,
    probe-bounded scan — or None when every candidate falls back.

    One probe session is reused across candidates: after a candidate
    update the base grammar is restored through the memo, so each probe
    costs one classify plus (at most) one splice or rebuild.  Work is
    the sum of the ``_WORK_COUNTERS`` deltas of the candidate's splice;
    ranking on dirty states alone is misleading — an edit touching two
    LR(0) states can still flip a lookahead terminal that propagates
    through the whole includes graph and refills a quarter of the table.
    """
    terminals = [t for t in grammar.terminals if t is not grammar.eof]
    session = AnalysisSession(grammar)
    best: "Optional[Tuple[int, int, str]]" = None
    best_work = None
    probes = 0
    with instrument.profile() as collector:
        counters = collector.counters
        for index, production in enumerate(grammar.productions):
            if index == 0:
                continue
            for position, symbol in enumerate(production.rhs):
                if not symbol.is_terminal:
                    continue
                for replacement in terminals:
                    if replacement is symbol:
                        continue
                    probes += 1
                    edited = replace_rhs(
                        grammar,
                        index,
                        tuple(
                            replacement if i == position else s
                            for i, s in enumerate(production.rhs)
                        ),
                    )
                    before = [counters.get(key, 0) for key in _WORK_COUNTERS]
                    report = session.update(edited)
                    work = sum(
                        counters.get(key, 0) - start
                        for key, start in zip(_WORK_COUNTERS, before)
                    )
                    session.update(grammar)
                    if report.strategy == "splice" and (
                        best_work is None or work < best_work
                    ):
                        best = (index, position, replacement.name)
                        best_work = work
                        if best_work <= _WORK_FLOOR:
                            return best
                    if probes >= _MAX_PROBES:
                        return best
    return best


def measure_incremental(grammar: Grammar) -> "Optional[Dict]":
    """One grammar's entry, or None when no edit splices.

    ``full_seconds`` times the from-scratch pipeline on the edited
    grammar; ``incremental_seconds`` times ``session.update`` toggling
    between the base and edited grammars (memo off, so both directions
    are genuine splices).  ``counters`` holds the edit recipe, the dirty
    region and the ``phase.*`` counters of one instrumented splice — the
    deterministic part a baseline diff asserts on.
    """
    grammar = grammar.augmented()
    edit = find_splice_edit(grammar)
    if edit is None:
        return None
    index, position, replacement = edit
    production = grammar.productions[index]
    edited = replace_rhs(
        grammar,
        index,
        tuple(
            replacement if i == position else s.name
            for i, s in enumerate(production.rhs)
        ),
    )

    full_samples: "List[float]" = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        automaton = LR0Automaton(edited)
        analysis = LalrAnalysis(edited, automaton, record_walks=True)
        build_lalr_table(edited, automaton, la_masks=analysis.la_masks)
        full_samples.append(time.perf_counter() - start)

    session = AnalysisSession(grammar, memo_size=0)
    incremental_samples: "List[float]" = []
    dirty_states = total_states = 0
    for step in range(REPEATS * 2):
        target = edited if step % 2 == 0 else grammar
        start = time.perf_counter()
        report = session.update(target)
        incremental_samples.append(time.perf_counter() - start)
        assert report.strategy == "splice", report.describe()
        dirty_states = max(dirty_states, report.dirty_states)
        total_states = report.total_states

    with instrument.profile() as collector:
        probe = AnalysisSession(grammar, memo_size=0)
        baseline_counters = dict(collector.counters)
        probe.update(edited)
    counters: "Dict[str, object]" = {
        "edit.production": index,
        "edit.position": position,
        "edit.replacement": replacement,
        "dirty_states": dirty_states,
        "total_states": total_states,
    }
    for key, value in sorted(collector.counters.items()):
        if key.startswith("phase."):
            counters[key] = value - baseline_counters.get(key, 0)

    full_seconds = statistics.median(full_samples)
    incremental_seconds = statistics.median(incremental_samples)
    return {
        "full_seconds": full_seconds,
        "incremental_seconds": incremental_seconds,
        "speedup": full_seconds / incremental_seconds
        if incremental_seconds
        else float("inf"),
        "counters": counters,
    }


def bench_snapshot(names: "Sequence[str]" = DEFAULT_GRAMMARS) -> Dict:
    """The ``incremental`` scenario: one entry per grammar; a grammar
    with no splice-able edit is skipped."""
    entries: "Dict[str, Dict]" = {}
    for name, grammar in map(load_named, names):
        entry = measure_incremental(grammar)
        entries[name] = entry or {"skipped": "no splice-able edit found"}
    return entries
