"""The oracle stack: every cross-implementation agreement check, shared.

An *oracle* inspects one grammar through two independent implementations
of the same specification and reports any disagreement.  The stack is the
single source of truth for "what must agree": the hypothesis property
tests, the Table 6 benchmark and the fuzz campaign all consume it, so a
new invariant added here is immediately checked everywhere.

Registered oracles (in stack order):

- ``lookahead-equivalence`` — LA_DP == LA_merge == LA_propagation, the
  paper's headline theorem (Theorem 9 / §6).
- ``superset-chain`` — LA ⊆ LA_NQLALR ⊆ FOLLOW: the exact sets sit at
  the bottom of the approximation hierarchy (§7).
- ``digraph-identity`` — the generic :func:`~repro.core.digraph.digraph`
  and the integer-core :func:`~repro.core.digraph.digraph_int` perform
  the *identical* traversal on the same CSR input: same F* masks, same
  SCCs, same :class:`~repro.core.digraph.DigraphStats`.
- ``table-agreement`` — the LALR table filled from DP bitmasks is
  cell-for-cell identical to one filled from merged-LR(1) lookaheads.
- ``sentence-roundtrip`` — generated sentences parse to identical
  derivation trees under the LALR and canonical-LR(1) engines.
- ``representation-parity`` — the LALR table's JSON and binary artifact
  round-trips keep its code arrays exactly and drive the engine to
  identical derivations *and* identical diagnostics (message, position,
  expected set) on both accepted sentences and deterministic mutants.
- ``glr-parity`` — the GLR engine run over the same table: on
  deterministic tables its forest holds exactly the LALR parse (or the
  byte-identical diagnostic); on conflicted tables its recognition
  agrees with CYK.

Each oracle takes an :class:`OracleContext` (which lazily builds and
caches the shared artifacts — automaton, analyses, tables) and returns
``None`` on agreement or a human-readable detail string on disagreement.
A crash inside an oracle is itself a finding and is reported as a
failure, never propagated.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..automaton.lr0 import LR0Automaton
from ..core import instrument
from ..core.digraph import DigraphStats, digraph, digraph_int
from ..grammar.fingerprint import grammar_text, text_fingerprint
from ..grammar.grammar import Grammar

Oracle = Callable[["OracleContext"], Optional[str]]

#: Registry, in stack order.  ``repro fuzz run --oracles`` and the tests
#: address oracles by these names.
ORACLES: "Dict[str, Oracle]" = {}

#: Oracles excluded from the default stack: they run only when selected
#: by name (``repro fuzz run --edit-oracle`` / ``--oracles``) or when a
#: persisted corpus entry replays them.  Keeps opt-in additions from
#: changing every existing campaign's workload and output.
OPT_IN_ORACLES: "set[str]" = set()


def oracle(name: str, default: bool = True) -> Callable[[Oracle], Oracle]:
    """Register an oracle under *name* (decorator).

    ``default=False`` registers it as opt-in: addressable by name and
    replayable from the corpus, but not part of the default stack.
    """

    def register(fn: Oracle) -> Oracle:
        assert name not in ORACLES, f"duplicate oracle {name!r}"
        ORACLES[name] = fn
        if not default:
            OPT_IN_ORACLES.add(name)
        return fn

    return register


def oracle_names() -> List[str]:
    """All registered oracle names, in stack order."""
    return list(ORACLES)


def default_oracle_names() -> List[str]:
    """The default stack: every registered oracle that is not opt-in."""
    return [name for name in ORACLES if name not in OPT_IN_ORACLES]


class OracleFailure:
    """One oracle disagreement (or oracle crash) on one grammar."""

    __slots__ = ("oracle", "detail", "grammar", "kind")

    def __init__(
        self, oracle: str, detail: str, grammar: Grammar, kind: str = "disagreement"
    ):
        self.oracle = oracle
        self.detail = detail
        self.grammar = grammar
        self.kind = kind

    def describe(self) -> str:
        return f"[{self.oracle}] {self.kind} on {self.grammar.name!r}: {self.detail}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OracleFailure({self.describe()})"


def failure_fingerprint(oracle_name: str, grammar: Grammar) -> str:
    """Stable identity of a failure: the oracle plus the grammar's text.

    Two campaign draws that reduce to the same grammar and trip the same
    oracle are the *same* bug; the corpus dedups on this.  The grammar
    name (which carries the generating seed) is excluded — identity is
    structural.
    """
    return text_fingerprint(oracle_name, grammar_text(grammar))


class OracleContext:
    """Shared, lazily built artifacts for one grammar under test.

    Args:
        grammar: The grammar (augmented on demand, cached).
        seed: Drives sentence generation for the round-trip oracle.
        sentence_count / sentence_budget: Round-trip workload size.
        clr_state_bound: Canonical-LR(1) construction is exponential-prone;
            CLR-based oracles skip (agree vacuously) when the LR(0)
            automaton exceeds this many states.  ``0`` disables the bound.
    """

    def __init__(
        self,
        grammar: Grammar,
        seed: int = 0,
        sentence_count: int = 4,
        sentence_budget: int = 12,
        clr_state_bound: int = 60,
    ):
        self.grammar = grammar
        self.seed = seed
        self.sentence_count = sentence_count
        self.sentence_budget = sentence_budget
        self.clr_state_bound = clr_state_bound
        self._augmented: "Grammar | None" = None
        self._automaton: "LR0Automaton | None" = None
        self._lalr = None
        self._merged = None
        self._lalr_table = None
        self._clr_table = None

    # -- cached artifacts ----------------------------------------------

    @property
    def augmented(self) -> Grammar:
        if self._augmented is None:
            g = self.grammar
            self._augmented = g if g.is_augmented else g.augmented()
        return self._augmented

    @property
    def automaton(self) -> LR0Automaton:
        if self._automaton is None:
            self._automaton = LR0Automaton(self.augmented)
        return self._automaton

    @property
    def lalr(self):
        """The DeRemer–Pennello analysis (LalrAnalysis)."""
        if self._lalr is None:
            from ..core.lalr import LalrAnalysis

            self._lalr = LalrAnalysis(self.augmented, self.automaton)
        return self._lalr

    @property
    def merged(self):
        """The canonical-LR(1)-merging baseline (MergedLr1Analysis)."""
        if self._merged is None:
            from ..baselines.merge_lr1 import MergedLr1Analysis

            self._merged = MergedLr1Analysis(self.augmented, self.automaton)
        return self._merged

    @property
    def lalr_table(self):
        if self._lalr_table is None:
            from ..tables.build import build_lalr_table

            self._lalr_table = build_lalr_table(self.augmented, self.automaton)
        return self._lalr_table

    @property
    def clr_table(self):
        if self._clr_table is None:
            from ..tables.build import build_clr_table

            self._clr_table = build_clr_table(self.augmented)
        return self._clr_table

    @property
    def clr_in_bounds(self) -> bool:
        """Whether CLR-based oracles should run on this grammar."""
        bound = self.clr_state_bound
        return bound <= 0 or len(self.automaton) <= bound

    def sentences(self) -> List[list]:
        """The round-trip workload: deterministic sentences of the grammar."""
        from ..analysis.derive import SentenceGenerator

        generator = SentenceGenerator(self.augmented, seed=self.seed)
        return generator.sentences(self.sentence_count, budget=self.sentence_budget)


def run_oracles(
    grammar: Grammar,
    names: "Optional[Sequence[str]]" = None,
    context: "Optional[OracleContext]" = None,
    **context_knobs,
) -> List[OracleFailure]:
    """Run (a subset of) the oracle stack on one grammar.

    Args:
        grammar: The grammar under test.
        names: Oracle names to run (default: the whole stack, in order).
            Unknown names raise KeyError — callers validate user input.
        context: A pre-built context to reuse; otherwise one is created
            from *context_knobs* (seed, sentence_count, ...).

    Returns:
        Every disagreement found (empty list == full agreement).  An
        oracle that crashes contributes a ``kind="crash"`` failure.
    """
    if context is None:
        context = OracleContext(grammar, **context_knobs)
    selected = default_oracle_names() if names is None else list(names)
    failures: List[OracleFailure] = []
    for name in selected:
        check = ORACLES[name]
        with instrument.span(f"fuzz.oracle.{name}"):
            try:
                detail = check(context)
            except Exception as error:  # a crash is a finding, not an abort
                failures.append(
                    OracleFailure(
                        name,
                        f"{type(error).__name__}: {error}",
                        grammar,
                        kind="crash",
                    )
                )
                continue
        if detail is not None:
            failures.append(OracleFailure(name, detail, grammar))
    instrument.count("fuzz.oracle_runs", len(selected))
    return failures


# -- the stack ---------------------------------------------------------


@oracle("lookahead-equivalence")
def check_lookahead_equivalence(ctx: OracleContext) -> Optional[str]:
    """LA_DP == LA_merge == LA_propagation, site for site."""
    from ..baselines.propagation import PropagationAnalysis

    dp = ctx.lalr.lookahead_table()
    merged = ctx.merged.lookahead_table()
    propagated = PropagationAnalysis(ctx.augmented, ctx.automaton).lookahead_table()
    if dp.keys() != merged.keys() or dp.keys() != propagated.keys():
        return (
            f"reduction-site sets differ: dp={len(dp)}, "
            f"merge={len(merged)}, propagation={len(propagated)}"
        )
    for site in dp:
        if not (dp[site] == merged[site] == propagated[site]):
            return (
                f"LA{site}: dp={_spell(dp[site])} "
                f"merge={_spell(merged[site])} propagation={_spell(propagated[site])}"
            )
    return None


@oracle("superset-chain")
def check_superset_chain(ctx: OracleContext) -> Optional[str]:
    """LA ⊆ LA_NQLALR ⊆ FOLLOW on every reduction site."""
    from ..baselines.nqlalr import NqlalrAnalysis
    from ..baselines.slr import SlrAnalysis

    exact = ctx.lalr.lookahead_table()
    loose = NqlalrAnalysis(ctx.augmented, ctx.automaton).lookahead_table()
    follow = SlrAnalysis(ctx.augmented, ctx.automaton).lookahead_table()
    if exact.keys() != loose.keys() or exact.keys() != follow.keys():
        return (
            f"reduction-site sets differ: dp={len(exact)}, "
            f"nqlalr={len(loose)}, slr={len(follow)}"
        )
    for site in exact:
        if not exact[site] <= loose[site]:
            return f"LA{site} ⊄ NQLALR{site}: {_spell(exact[site] - loose[site])} missing"
        if not loose[site] <= follow[site]:
            return f"NQLALR{site} ⊄ FOLLOW: {_spell(loose[site] - follow[site])} missing"
    return None


@oracle("digraph-identity")
def check_digraph_identity(ctx: OracleContext) -> Optional[str]:
    """Generic digraph vs digraph_int: identical F*, SCCs and stats.

    Both implementations run on the *same* CSR input (the relations the
    LALR pipeline actually built), for both passes — `reads` seeded with
    DR and `includes` seeded with the Read masks — so any divergence in
    traversal order, union counts or SCC detection is caught.
    """
    relations = ctx.lalr.relations
    n = relations.n_nodes
    passes = [
        ("reads", relations.reads_offsets, relations.reads_adj, relations.dr_masks),
        (
            "includes",
            relations.includes_offsets,
            relations.includes_adj,
            ctx.lalr._read_masks,
        ),
    ]
    for label, offsets, adj, initial in passes:
        generic_stats, int_stats = DigraphStats(), DigraphStats()
        adjacency = {
            x: list(adj[offsets[x] : offsets[x + 1]]) for x in range(n)
        }
        generic_result, generic_sccs = digraph(
            list(range(n)),
            lambda x: adjacency[x],
            lambda x: initial[x],
            generic_stats,
        )
        int_result, int_sccs = digraph_int(n, offsets, adj, initial, int_stats)
        if [generic_result[x] for x in range(n)] != list(int_result):
            return f"{label}: F* masks differ between digraph and digraph_int"
        if sorted(map(sorted, generic_sccs)) != sorted(map(sorted, int_sccs)):
            return f"{label}: SCC sets differ ({generic_sccs} vs {int_sccs})"
        if generic_stats.as_dict() != int_stats.as_dict():
            return (
                f"{label}: DigraphStats differ "
                f"({generic_stats.as_dict()} vs {int_stats.as_dict()})"
            )
    return None


@oracle("table-agreement")
def check_table_agreement(ctx: OracleContext) -> Optional[str]:
    """The LALR table equals one filled from merged-LR(1) lookaheads.

    Both tables live on the same LR(0) automaton, so the comparison is
    cell-for-cell: ACTION, GOTO and the determinism verdict must all
    match.  (On conflicted grammars the yacc tie-breaks are deterministic
    functions of the lookahead sets, so equality must still hold.)
    """
    from ..tables.build import build_lalr_table

    dp_table = ctx.lalr_table
    merged_table = build_lalr_table(
        ctx.augmented, ctx.automaton, lookahead_table=ctx.merged.lookahead_table()
    )
    if dp_table.is_deterministic != merged_table.is_deterministic:
        return (
            f"determinism differs: dp={dp_table.is_deterministic} "
            f"merge={merged_table.is_deterministic}"
        )
    ids = ctx.augmented.ids
    for kind, dp_codes, merged_codes, width in (
        ("ACTION", dp_table.action_codes, merged_table.action_codes, ids.num_terminals),
        ("GOTO", dp_table.goto_codes, merged_table.goto_codes, ids.num_nonterminals),
    ):
        if dp_codes != merged_codes:
            # Same automaton, so same lengths: some cell must differ.
            cell = next(
                i for i, (dp, merged) in enumerate(zip(dp_codes, merged_codes)) if dp != merged
            )
            return f"{kind} row {cell // width} differs between dp and merged-LR(1) fills"
    return None


@oracle("sentence-roundtrip")
def check_sentence_roundtrip(ctx: OracleContext) -> Optional[str]:
    """Generated sentences parse identically under LALR and CLR engines.

    Applies to grammars whose LALR table is deterministic (then CLR must
    be too — merging never removes conflicts); skipped when the automaton
    exceeds the context's CLR bound.
    """
    from ..parser.engine import Parser

    if not ctx.clr_in_bounds:
        return None
    lalr_table = ctx.lalr_table
    if not lalr_table.is_deterministic:
        return None
    clr_table = ctx.clr_table
    if not clr_table.is_deterministic:
        return "LALR table is deterministic but the canonical-LR(1) table is not"
    lalr_parser = Parser(lalr_table)
    clr_parser = Parser(clr_table)
    for sentence in ctx.sentences():
        words = [symbol.name for symbol in sentence]
        lalr_tree = lalr_parser.parse(sentence)
        clr_tree = clr_parser.parse(sentence)
        if lalr_tree.sexpr() != clr_tree.sexpr():
            return (
                f"derivations differ on {' '.join(words)!r}: "
                f"LALR={lalr_tree.sexpr()} CLR={clr_tree.sexpr()}"
            )
    return None


#: The GLR oracles compare tree counts saturated at this many trees.
TREE_LIMIT = 1000


@oracle("representation-parity")
def check_representation_parity(ctx: OracleContext) -> Optional[str]:
    """Every artifact round-trip is observationally identical.

    A JSON round-trip (``table_from_dict(table_to_dict(t))``) and a binary
    round-trip (``table_from_bytes(table_to_bytes(t))``) must reproduce
    the table's code arrays and its conflict log exactly, and drive the
    engine to the same outcome on every generated sentence and to the
    *same error* — message text, position and expected set — on
    deterministic mutants of those sentences.  A deterministic table
    drives the LR engine (same derivation); a conflicted one drives the
    GLR engine, which forks on the cells the conflict log restores (same
    ``tree_count(TREE_LIMIT)``).  This is the live form of the artifact
    round-trip regression suite, run on every fuzz-campaign grammar.
    """
    from ..parser.engine import Parser
    from ..parser.glr import GlrParser
    from ..tables.binfmt import table_from_bytes, table_to_bytes
    from ..tables.serialize import table_from_dict, table_to_dict

    base = ctx.lalr_table
    tables = []
    for label, loaded in (
        ("json", table_from_dict(table_to_dict(base), ctx.augmented)),
        ("binary", table_from_bytes(table_to_bytes(base), ctx.augmented)),
    ):
        if (
            loaded.action_codes != base.action_codes
            or loaded.goto_codes != base.goto_codes
        ):
            return f"{label} round-trip changes the table's code arrays"
        if _conflict_log(loaded) != _conflict_log(base):
            return f"{label} round-trip changes the table's conflict log"
        tables.append((label, loaded))

    if base.is_deterministic:
        def engine(table):
            parser = Parser(table)
            return lambda words: ("tree", parser.parse(words).sexpr())
    else:
        def engine(table):
            glr = GlrParser(table)
            return lambda words: ("valid", glr.parse_forest(words).tree_count(TREE_LIMIT))
    reference = engine(base)
    variants = [(label, engine(loaded)) for label, loaded in tables]

    # Deterministic mutants, kept inside the grammar's own terminal
    # alphabet (out-of-grammar names take the engine's "unknown terminal"
    # path, which generated drivers deliberately do not share).
    terminals = sorted(ctx.augmented.terminals, key=lambda s: s.name)
    for words in _streams(ctx, terminals):
        expected_outcome = _outcome(reference, words)
        for label, run in variants:
            outcome = _outcome(run, words)
            if outcome != expected_outcome:
                rendered = " ".join(t.name for t in words) or "<empty>"
                return (
                    f"{label} table diverges on {rendered!r}: "
                    f"{outcome!r} != {expected_outcome!r}"
                )
    return None


def _conflict_log(table) -> list:
    """Everything a table's conflict log records, comparably."""
    return [
        (
            conflict.state,
            conflict.terminal,
            conflict.kind,
            conflict.actions,
            conflict.chosen,
            conflict.resolved_by_precedence,
        )
        for conflict in table.conflicts
    ]


def _streams(ctx: OracleContext, terminals: list) -> List[list]:
    """The context's sentences, then per non-empty sentence its prefix
    without the last token and a copy with one token swapped for one of
    *terminals*, then the empty stream."""
    sentences = ctx.sentences()
    streams: List[list] = [list(sentence) for sentence in sentences]
    for index, sentence in enumerate(sentences):
        if sentence:
            streams.append(list(sentence[:-1]))
            swapped = list(sentence)
            swapped[index % len(swapped)] = terminals[index % len(terminals)]
            streams.append(swapped)
    streams.append([])
    return streams


def _outcome(run, words: list) -> tuple:
    """``run(words)``, or the ParseError's text, position and expected set."""
    from ..parser.errors import ParseError

    try:
        return run(list(words))
    except ParseError as error:
        return (
            "error",
            str(error),
            error.position,
            [s.name for s in error.expected],
        )


@oracle("glr-parity")
def check_glr_parity(ctx: OracleContext) -> Optional[str]:
    """The GLR engine agrees with the ground truth for its table.

    On grammars whose LALR table is deterministic, the GLR forest must
    contain *exactly* the LALR parse on every generated sentence, and
    must fail with the byte-identical error (message, position, expected
    set) on deterministic mutants — the GSS degenerates to a chain, so
    any divergence is an engine bug.  On conflicted tables the
    deterministic engine is no reference; there GLR recognition must
    agree with CYK (the LR-independent membership oracle) on every
    stream, and on a cycle-free grammar without precedence declarations
    (no conflict resolved away) every accepted stream's
    ``tree_count(TREE_LIMIT)`` must equal the
    :class:`~repro.analysis.ambiguity.TreeCounter` count, capped at the
    same limit.
    """
    from ..parser.engine import Parser
    from ..parser.errors import ParseError
    from ..parser.glr import GlrParser

    table = ctx.lalr_table
    glr = GlrParser(table)
    # No EOF in the swap alphabet: CYK (the conflicted-branch reference)
    # has no notion of an end marker.
    terminals = sorted(
        (t for t in ctx.augmented.terminals if t is not ctx.augmented.eof),
        key=lambda s: s.name,
    )
    streams = _streams(ctx, terminals)

    if table.is_deterministic:
        reference = Parser(table)

        def glr_tree(words):
            forest = glr.parse_forest(words)
            count = forest.tree_count(limit=2)
            return ("tree", forest.tree().sexpr()) if count == 1 else ("trees", count)

        for words in streams:
            rendered = " ".join(t.name for t in words) or "<empty>"
            expected = _outcome(lambda w: ("tree", reference.parse(w).sexpr()), words)
            outcome = _outcome(glr_tree, words)
            if outcome[0] == "trees":
                return (
                    f"GLR forest holds {outcome[1]} trees on {rendered!r} "
                    f"under a deterministic table (expected exactly 1)"
                )
            if outcome != expected:
                return (
                    f"GLR diverges from LALR on {rendered!r}: "
                    f"{outcome!r} != {expected!r}"
                )
        return None

    # Conflicted table: cross-check recognition against CYK, and tree
    # counts against the tree counter, on the raw (pre-augmentation)
    # grammar.
    raw = ctx.grammar
    if raw.is_augmented:
        return None
    from ..analysis.ambiguity import TreeCounter
    from ..grammar.errors import GrammarValidationError
    from ..parser.cyk import CykRecognizer

    try:
        cyk = CykRecognizer(raw)
    except GrammarValidationError:
        return None
    counter = None
    if not raw.precedence:
        try:
            counter = TreeCounter(raw)
        except GrammarValidationError:
            pass  # cyclic: infinitely many trees
    for words in streams:
        rendered = " ".join(t.name for t in words) or "<empty>"
        names = [t.name for t in words]
        try:
            forest = glr.parse_forest(list(words))
        except ParseError:
            forest = None
        glr_accepts = forest is not None
        cyk_accepts = cyk.accepts(names)
        if glr_accepts != cyk_accepts:
            return (
                f"GLR and CYK disagree on {rendered!r}: "
                f"GLR={glr_accepts} CYK={cyk_accepts}"
            )
        if forest is not None and counter is not None:
            trees = forest.tree_count(TREE_LIMIT)
            expected = min(counter.count(names), TREE_LIMIT)
            if trees != expected:
                return (
                    f"GLR forest holds {trees} trees on {rendered!r}, "
                    f"the tree counter {expected} (limit {TREE_LIMIT})"
                )
    return None


@oracle("incremental-edit", default=False)
def check_incremental_edit(ctx: OracleContext) -> Optional[str]:
    """Session updates are bit-identical to from-scratch rebuilds.

    Drives an :class:`~repro.pipeline.session.AnalysisSession` through a
    deterministic (seed-derived) schedule of edits — rhs symbol swaps,
    terminal and nonterminal substitutions, production additions and
    removals — and after every update compares the session's artifacts
    against a from-scratch pipeline on a fresh copy of the edited
    grammar (no cache the session carried onto it is shared): state
    kernels and transitions, the LA dict (including insertion order),
    ACTION/GOTO rows dict and dense, conflict reports, the SCC
    diagnostics (as sets — the incremental path may order the list
    differently), and the state a splice carries from edit to edit —
    closure tables, nullable set, relation totals, walk memo, and the
    walk index and successor readers (against a rebuild from the
    session's own memo).  Structural deltas must take the rebuild path,
    never a splice.

    Opt-in (``repro fuzz run --edit-oracle``): it multiplies the
    per-grammar workload by the edit count, so the default campaigns
    don't pay for it.
    """
    import random

    from ..core.lalr import LalrAnalysis
    from ..grammar.delta import DeltaKind, classify
    from ..pipeline import AnalysisSession
    from ..tables.build import build_lalr_table

    session = AnalysisSession(ctx.augmented)
    rng = random.Random((ctx.seed * 2654435761 + 97) % 2**31)
    for step in range(6):
        current = session.grammar
        edited = _random_session_edit(rng, current)
        if edited is None:
            continue
        delta_kind = classify(current, edited).kind
        report = session.update(edited)

        if delta_kind not in (DeltaKind.RHS, DeltaKind.IDENTICAL):
            if report.strategy == "splice":
                return (
                    f"step {step}: structural delta ({delta_kind}) was "
                    f"spliced instead of rebuilt"
                )

        grammar = session.grammar
        fresh = Grammar(
            grammar.symbols,
            grammar.productions,
            grammar.start,
            grammar.precedence,
            grammar.name,
        )
        reference = LalrAnalysis(fresh, record_walks=True)
        reference_table = build_lalr_table(fresh, reference.automaton)
        mismatch = _session_mismatch(session, reference, reference_table)
        if mismatch:
            return f"step {step} ({report.describe()}): {mismatch}"
    return None


def _random_session_edit(rng, grammar):
    """One seed-driven edit of *grammar* (same SymbolTable), or None."""
    from ..grammar.delta import add_production, remove_production, replace_rhs

    terminals = [t for t in grammar.terminals if t is not grammar.eof]
    editable = [
        p for p in grammar.productions[1:] if len(p.rhs) >= 1
    ]
    if not editable or not terminals:
        return None
    choice = rng.randrange(5)
    if choice == 4:
        # Substitute one rhs position with a nonterminal — the only edit
        # that can take a rule's last terminal away and so change which
        # nonterminals are nullable.
        start = grammar.productions[0].lhs
        nonterminals = [nt for nt in grammar.ids.nonterminals if nt is not start]
        production = rng.choice(editable)
        rhs = list(production.rhs)
        rhs[rng.randrange(len(rhs))] = rng.choice(nonterminals)
        return replace_rhs(grammar, production.index, rhs)
    if choice == 0:
        # Substitute one rhs position with a random terminal.
        production = rng.choice(editable)
        rhs = list(production.rhs)
        rhs[rng.randrange(len(rhs))] = rng.choice(terminals)
        return replace_rhs(grammar, production.index, rhs)
    if choice == 1:
        # Swap two rhs positions.
        candidates = [p for p in editable if len(p.rhs) >= 2]
        if not candidates:
            return None
        production = rng.choice(candidates)
        rhs = list(production.rhs)
        i = rng.randrange(len(rhs) - 1)
        rhs[i], rhs[i + 1] = rhs[i + 1], rhs[i]
        return replace_rhs(grammar, production.index, rhs)
    if choice == 2:
        # Append a fresh alternative (an add-remove delta).
        production = rng.choice(editable)
        return add_production(
            grammar,
            production.lhs,
            tuple(production.rhs) + (rng.choice(terminals),),
        )
    # Remove a production whose lhs keeps at least one other rule.
    by_lhs = {}
    for production in grammar.productions[1:]:
        by_lhs.setdefault(production.lhs, []).append(production)
    removable = [
        p for rules in by_lhs.values() if len(rules) > 1 for p in rules
    ]
    if not removable:
        return None
    return remove_production(grammar, rng.choice(removable).index)


def _session_mismatch(session, reference, reference_table) -> Optional[str]:
    """First bit-level divergence between session artifacts and a
    from-scratch pipeline, or None when identical."""
    automaton = session.automaton
    if len(automaton.states) != len(reference.automaton.states):
        return (
            f"state counts differ: session={len(automaton.states)} "
            f"scratch={len(reference.automaton.states)}"
        )
    for ours, theirs in zip(automaton.states, reference.automaton.states):
        if ours.kernel_codes != theirs.kernel_codes:
            return f"state {theirs.state_id}: kernels differ"
        if list(ours.targets) != list(theirs.targets):
            return f"state {theirs.state_id}: transition rows differ"
        if ours.reductions != theirs.reductions:
            return f"state {theirs.state_id}: reduction items differ"
    analysis = session.analysis
    if analysis.la_masks != reference.la_masks:
        return "LA masks differ"
    if list(analysis.la_masks) != list(reference.la_masks):
        return "LA site order differs"
    if analysis._read_masks != reference._read_masks:
        return "Read masks differ"
    if analysis._follow_masks != reference._follow_masks:
        return "Follow masks differ"
    if set(analysis.reads_sccs) != set(reference.reads_sccs):
        return "reads SCCs differ"
    if set(analysis.includes_sccs) != set(reference.includes_sccs):
        return "includes SCCs differ"
    carried = _carried_state_mismatch(session, reference)
    if carried:
        return carried
    table = session.table
    if table.action_codes != reference_table.action_codes:
        return "ACTION codes differ"
    if table.goto_codes != reference_table.goto_codes:
        return "GOTO codes differ"
    ours = [c.describe(session.grammar) for c in table.conflicts]
    theirs = [c.describe(session.grammar) for c in reference_table.conflicts]
    if ours != theirs:
        return "conflict reports differ"
    return None


def _carried_state_mismatch(session, reference) -> Optional[str]:
    """First divergence in the state a splice carries across an edit."""
    from ..analysis.nullable import nullable_nonterminals
    from ..core.relations_delta import build_successor_readers, build_walk_index

    grammar = session.grammar
    if grammar.__dict__.get("_closure_tables") != reference.grammar._closure_tables:
        return "closure tables differ"
    if nullable_nonterminals(grammar) != nullable_nonterminals(reference.grammar):
        return "nullable sets differ"
    relations, fresh = session.relations, reference.relations
    if relations.stats() != fresh.stats():
        return "relation totals differ"
    if (relations.walk_edges, relations.walk_sites, relations.walk_states) != (
        fresh.walk_edges, fresh.walk_sites, fresh.walk_states
    ):
        return "walk memo differs"
    if relations.walk_index is not None:
        by_state, by_nt = relations.walk_index
        rebuilt_state, rebuilt_nt = build_walk_index(relations)
        if [sorted(nodes) for nodes in by_state] != rebuilt_state or by_nt != rebuilt_nt:
            return "walk index differs"
    if relations.readers is not None:
        if relations.readers != build_successor_readers(relations):
            return "successor readers differ"
    return None


def _spell(terminals) -> str:
    return "{" + ", ".join(sorted(t.name for t in terminals)) + "}"
