"""Command-line interface: ``python -m repro <command> <grammar-file>``.

Commands:
    pipeline   Run the full build pipeline (the default command).
    classify   Report the grammar's LR-hierarchy class and diagnostics.
    la         Print every LALR(1) look-ahead set (DeRemer-Pennello).
    table      Print the parse table for a chosen construction.
    states     Dump the LR(0) automaton's item sets.
    conflicts  Describe every conflict for a chosen construction.
    parse      Parse whitespace-separated terminals from --input.
    stats      Grammar/automaton/relation size statistics.
    generate   Emit a standalone Python parser module.
    dot        Emit Graphviz DOT for the automaton or a DP relation.
    lint       Report grammar hygiene findings (yacc-style warnings).
    ambiguity  Search for an ambiguous sentence up to a length bound.
    edit       Apply grammar edits through a live incremental session:
               only what each edit invalidated is recomputed, with
               --verify checking bit-identity against a scratch build.
    fuzz       Differential fuzzing: run/replay/minimize campaigns
               (see repro.fuzz; takes no grammar file).
    batch      Compile every grammar file in a directory through the
               (optionally cached) table pipeline, across --workers N
               processes (takes a directory, no grammar file).
    bench      Run one bench scenario and diff its exact counters
               against a committed baseline: ``repro bench <scenario>
               [names...] [--baseline F | --write-baseline F]`` (see
               repro.bench.runner; takes no grammar file).

Exit codes follow one contract across every command: ``0`` success /
clean, ``1`` a domain failure (conflicted table, invalid input, oracle
disagreement), ``2`` a usage error (bad flags, unknown oracle or
fingerprint) — so CI can tell "the theorem broke" from "the invocation
was wrong".

``python -m repro <grammar>`` (no command word) runs ``pipeline``; with
``--profile`` every command prints a per-phase timing/counter breakdown
at the end, and ``--cache [DIR]`` makes table-building commands load
tables from the on-disk cache instead of rebuilding (corrupt or stale
entries rebuild silently).

Every grammar command also takes the resource-budget flags ``--timeout
SEC`` and ``--max-states N`` (see repro.core.budget): when a limit is
hit the command exits 1 with a diagnostic naming the phase reached, the
resource that ran out and the partial progress made, instead of hanging
on a pathological grammar.

Grammar files use either supported format (see repro.grammar.reader).
Corpus grammars can be used anywhere a file is expected via
``corpus:<name>`` (e.g. ``corpus:expr``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .automaton import LR0Automaton
from .bench import format_table, grammar_row
from .core import Budget, BudgetExceeded, LalrAnalysis, instrument
from .grammar import Grammar, load_grammar_file
from .grammars import corpus
from .parser import ConflictedTableError, ParseError, Parser
from .tables import (
    BUILDERS,
    TableCache,
    build_lalr_table,
    build_table,
    classify,
    default_cache_dir,
    generate_parser_module,
)


def _load(spec: str) -> Grammar:
    if spec.startswith("corpus:"):
        return corpus.load(spec.split(":", 1)[1])
    return load_grammar_file(spec)


def _budget_from(args) -> "Optional[Budget]":
    """The request Budget for --timeout/--max-states, or None when unset."""
    timeout = getattr(args, "timeout", 0.0)
    max_states = getattr(args, "max_states", 0)
    if not timeout and not max_states:
        return None
    return Budget(timeout=timeout or None, max_states=max_states or None)


def _table_for(grammar: Grammar, args, budget: "Optional[Budget]" = None) -> "tuple":
    """(table, cache) for a table-building command, honouring --cache."""
    cache_dir = getattr(args, "cache", None)
    cache = TableCache(cache_dir, backend=getattr(args, "format", "json")) if cache_dir else None
    _, table = build_table(grammar, getattr(args, "method", "lalr1"), cache, budget)
    return table, cache


def _cmd_pipeline(grammar: Grammar, args) -> int:
    """Run the whole pipeline: grammar -> LR(0) -> lookaheads -> table
    (through the cache when enabled), optionally parsing --input."""
    budget = _budget_from(args)
    table, cache = _table_for(grammar, args, budget)
    summary = table.conflict_summary()
    print(f"grammar: {grammar.name}")
    print(f"method: {table.method}")
    print(f"states: {table.n_states}")
    print(
        f"conflicts: {summary['shift_reduce']} shift/reduce, "
        f"{summary['reduce_reduce']} reduce/reduce, "
        f"{summary['resolved']} resolved by precedence"
    )
    if cache is not None:
        stats = cache.stats()
        verdict = "hit" if stats["hits"] else (
            "rebuilt (corrupt entry)" if stats["corrupt"] else "miss"
        )
        print(f"cache: {verdict} ({cache.directory})")
    if args.input:
        try:
            parser = Parser(table)
        except ConflictedTableError:
            # Fall back to the engine that can honestly answer for a
            # conflicted table instead of silently picking winners.
            from .parser import GlrParser

            parser = GlrParser(table)
        try:
            parser.parse(args.input.split(), budget=budget)
        except ParseError as error:
            print(f"input: invalid ({error})")
            return 1
        print("input: valid")
    return 0 if table.is_deterministic else 1


def _cmd_classify(grammar: Grammar, args) -> int:
    verdict = classify(grammar, ignore_precedence=not args.use_precedence)
    print(f"class: {verdict.grammar_class}")
    print(f"LR(0): {verdict.is_lr0}")
    print(f"SLR(1): {verdict.is_slr1}")
    print(f"LALR(1): {verdict.is_lalr1}")
    print(f"LR(1): {verdict.is_lr1}")
    print(f"not LR(k) (reads cycle): {verdict.not_lr_k}")
    for method, count in verdict.conflict_counts.items():
        rendered = "n/a" if count < 0 else str(count)
        print(f"conflicts[{method}]: {rendered}")
    return 0


def _cmd_la(grammar: Grammar, args) -> int:
    analysis = LalrAnalysis(grammar.augmented(), budget=_budget_from(args))
    print(analysis.describe())
    return 0


def _cmd_table(grammar: Grammar, args) -> int:
    from .tables import (
        BINARY_SUFFIX,
        compress,
        displace,
        save_binary_table,
        save_table,
    )

    table, _ = _table_for(grammar, args, _budget_from(args))
    print(table.format(max_states=args.print_states))
    summary = table.conflict_summary()
    print(
        f"\n{table.n_states} states, "
        f"{summary['shift_reduce']} shift/reduce, "
        f"{summary['reduce_reduce']} reduce/reduce, "
        f"{summary['resolved']} resolved by precedence"
    )
    if args.compress != "none":
        if table.unresolved_conflicts:
            print("compression: skipped (table has unresolved conflicts)")
        elif args.compress == "displace":
            stats = displace(table).packing_stats()
            ratio = stats["dense_cells"] / stats["stored_cells"]
            print(
                f"compression[displace]: {stats['dense_cells']} dense cells "
                f"-> {stats['stored_cells']} stored "
                f"({stats['comb_slots']} comb slots, "
                f"{stats['comb_gaps']} gaps; ratio {ratio:.2f}x)"
            )
        else:
            compressed = compress(table)
            dense = table.size_cells()
            stored = compressed.size_cells()
            ratio = dense / stored if stored else 1.0
            print(
                f"compression[default]: {dense} populated cells "
                f"-> {stored} stored (ratio {ratio:.2f}x)"
            )
    if args.output:
        # Conflicted tables serialize too (JSON format 4 / binary format
        # 3 carry the full conflict log for the GLR engine's nondet view).
        as_binary = args.format == "bin" or args.output.endswith(BINARY_SUFFIX)
        if as_binary:
            written = save_binary_table(table, args.output)
        else:
            save_table(table, args.output)
            import os

            written = os.path.getsize(args.output)
        print(f"wrote {args.output} ({written} bytes, "
              f"{'binary' if as_binary else 'json'})")
    return 0 if table.is_deterministic else 1


def _cmd_states(grammar: Grammar, args) -> int:
    automaton = LR0Automaton(grammar.augmented(), budget=_budget_from(args))
    for state in automaton.states:
        print(automaton.format_state(state.state_id, kernel_only=args.kernel))
        print()
    return 0


def _cmd_conflicts(grammar: Grammar, args) -> int:
    from .tables.explain import explain_conflict

    budget = _budget_from(args)
    augmented = grammar.augmented()
    automaton = LR0Automaton(augmented, budget=budget)
    table = BUILDERS[args.method](augmented, budget=budget)
    if not table.conflicts:
        print("no conflicts")
        return 0
    for conflict in table.conflicts:
        print(conflict.describe(table.grammar))
        if args.explain and not conflict.resolved_by_precedence and args.method != "clr1":
            example = explain_conflict(automaton, conflict)
            if example is not None:
                print(f"  example: {example.describe()}")
    return 0 if table.is_deterministic else 1


def _cmd_parse(grammar: Grammar, args) -> int:
    budget = _budget_from(args)
    table, _ = _table_for(grammar, args, budget)
    tokens = args.input.split()
    if args.engine == "glr":
        from .parser import GlrParser

        try:
            forest = GlrParser(table).parse_forest(tokens, budget=budget)
        except ParseError as error:
            print(f"invalid: {error}")
            return 1
        count = forest.tree_count(limit=1000)
        plural = "" if count == 1 else "s"
        print(f"valid ({count}{'+' if count >= 1000 else ''} parse tree{plural})")
        if args.tree and count:
            print(forest.tree().format())
        return 0
    try:
        parser = Parser(table)
    except ConflictedTableError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        if args.tree:
            tree = parser.parse(tokens, budget=budget)
        else:
            parser.check(tokens, budget=budget)
    except ParseError as error:
        print(f"invalid: {error}")
        return 1
    print("valid")
    if args.tree:
        print(tree.format())
    return 0


def _cmd_generate(grammar: Grammar, args) -> int:
    table, _ = _table_for(grammar, args, _budget_from(args))
    source = generate_parser_module(table, name=grammar.name, style=args.style)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(source)
        print(f"wrote {args.output}")
    else:
        print(source, end="")
    return 0


def _cmd_dot(grammar: Grammar, args) -> int:
    from .automaton import LR0Automaton, automaton_to_dot, includes_to_dot, reads_to_dot
    from .core import LalrAnalysis

    augmented = grammar.augmented()
    if args.graph == "automaton":
        print(automaton_to_dot(LR0Automaton(augmented), kernel_only=not args.closure))
    else:
        analysis = LalrAnalysis(augmented)
        renderer = reads_to_dot if args.graph == "reads" else includes_to_dot
        print(renderer(analysis))
    return 0


def _cmd_stats(grammar: Grammar, args) -> int:
    row = grammar_row(grammar)
    print(format_table(["metric", "value"], sorted(row.items())))
    return 0


def _cmd_ambiguity(grammar: Grammar, args) -> int:
    from .analysis import ambiguity_report

    report = ambiguity_report(grammar, args.bound)
    print(f"verdict: {report.verdict} (bound {report.bound}, "
          f"{report.sentences_checked} sentences checked)")
    if report.witness is not None:
        print(f"witness: {report.witness.words()!r} "
              f"({report.witness.tree_count} parse trees)")
    return 1 if report.verdict in ("ambiguous", "cyclic") else 0


def _cmd_lint(grammar: Grammar, args) -> int:
    from .grammar import lint, lint_report

    print(lint_report(grammar))
    findings = lint(grammar)
    return 1 if any(w.severity == "error" for w in findings) else 0


def _cmd_edit(grammar: Grammar, args) -> int:
    """Apply grammar edits through a live incremental analysis session."""
    from .grammar.delta import add_production, remove_production, replace_rhs
    from .pipeline import AnalysisSession

    steps = []
    for spec in args.set:
        index_text, sep, rhs_text = spec.partition(":")
        if not sep:
            return _usage_error(f"bad --set {spec!r} (want 'INDEX: rhs tokens')")
        try:
            steps.append(("set", int(index_text), rhs_text.split()))
        except ValueError:
            return _usage_error(f"bad --set index {index_text.strip()!r}")
    for spec in args.add:
        lhs, sep, rhs_text = spec.partition(":")
        if not sep or not lhs.strip():
            return _usage_error(f"bad --add {spec!r} (want 'LHS: rhs tokens')")
        steps.append(("add", lhs.strip(), rhs_text.split()))
    for index in args.remove:
        steps.append(("remove", index, None))
    if not steps:
        return _usage_error("no edits given (use --set/--add/--remove)")

    session = AnalysisSession(grammar.augmented())
    print(f"grammar: {grammar.name} ({len(session.automaton.states)} states)")
    for op, key, rhs in steps:
        try:
            if op == "set":
                edited = replace_rhs(session.grammar, key, rhs)
            elif op == "add":
                edited = add_production(session.grammar, key, rhs)
            else:
                edited = remove_production(session.grammar, key)
        except (IndexError, ValueError) as error:
            return _usage_error(f"--{op}: {error}")
        report = session.update(edited)
        label = f"{op} {key}" if op == "add" else f"{op} #{key}"
        print(f"edit[{label}]: {report.describe()}")

    table = session.table
    summary = table.conflict_summary()
    print(f"states: {table.n_states}")
    print(
        f"conflicts: {summary['shift_reduce']} shift/reduce, "
        f"{summary['reduce_reduce']} reduce/reduce, "
        f"{summary['resolved']} resolved by precedence"
    )
    if args.verify:
        reference = build_lalr_table(session.grammar)
        identical = (
            table.action_codes == reference.action_codes
            and table.goto_codes == reference.goto_codes
            and [c.describe(session.grammar) for c in table.conflicts]
            == [c.describe(session.grammar) for c in reference.conflicts]
        )
        print("verify: " + (
            "bit-identical to a from-scratch build" if identical else "MISMATCH"
        ))
        if not identical:
            return 1
    return 0 if table.is_deterministic else 1


def _usage_error(message: str) -> int:
    """Report a usage-level mistake; exit code 2 mirrors argparse's."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_fuzz_run(_, args) -> int:
    """Run a differential fuzzing campaign over random grammars."""
    from .fuzz import CampaignConfig, DEFAULT_BUCKETS, FailureCorpus, run_campaign
    from .fuzz.oracles import oracle_names

    names = None
    if args.oracles:
        names = [n.strip() for n in args.oracles.split(",") if n.strip()]
        unknown = [n for n in names if n not in oracle_names()]
        if unknown:
            return _usage_error(
                f"unknown oracle(s): {', '.join(unknown)} "
                f"(known: {', '.join(oracle_names())})"
            )
    buckets = list(DEFAULT_BUCKETS)
    if args.buckets:
        by_label = {bucket.label: bucket for bucket in DEFAULT_BUCKETS}
        wanted = [b.strip() for b in args.buckets.split(",") if b.strip()]
        unknown = [b for b in wanted if b not in by_label]
        if unknown:
            return _usage_error(
                f"unknown bucket(s): {', '.join(unknown)} "
                f"(known: {', '.join(by_label)})"
            )
        buckets = [by_label[b] for b in wanted]
    if args.edit_oracle:
        from .fuzz.oracles import default_oracle_names

        if names is None:
            names = default_oracle_names()
        if "incremental-edit" not in names:
            names = names + ["incremental-edit"]
    corpus_store = FailureCorpus(args.corpus) if args.corpus else None
    config = CampaignConfig(
        seed=args.seed,
        count=args.count,
        buckets=buckets,
        oracles=names,
        time_budget=args.time_budget or getattr(args, "timeout", 0.0),
        clr_state_bound=args.clr_bound,
    )
    report = run_campaign(config, corpus=corpus_store, workers=args.workers)
    print(f"campaign: seed={args.seed} count={args.count} "
          f"buckets={','.join(b.label for b in buckets)} "
          f"oracles={','.join(names) if names else 'all'}")
    for line in report.summary_lines():
        print(line)
    for failure in report.failures:
        print(f"FAIL {failure.describe()}")
    print(f"verdict: {'clean' if report.clean else 'disagreement'}")
    return 0 if report.clean else 1


def _cmd_fuzz_replay(_, args) -> int:
    """Replay the failure corpus; fail when any disagreement survives."""
    from .fuzz import FailureCorpus

    corpus_store = FailureCorpus(args.corpus)
    if args.fingerprint:
        try:
            entries = [corpus_store.get(args.fingerprint)]
        except KeyError as error:
            return _usage_error(str(error))
    else:
        entries = corpus_store.entries()
    if not entries:
        print(f"corpus is empty ({args.corpus})")
        print("verdict: clean")
        return 0
    surviving = 0
    for entry in entries:
        failures = entry.replay(clr_state_bound=args.clr_bound)
        if failures:
            surviving += 1
            print(f"FAIL {entry.fingerprint[:12]} {failures[0].describe()}")
        else:
            print(f"PASS {entry.fingerprint[:12]} [{entry.oracle}] "
                  f"no longer reproduces (pinned as regression)")
    print(f"replayed: {len(entries)} entries, {surviving} still failing")
    print(f"verdict: {'clean' if not surviving else 'disagreement'}")
    return 0 if not surviving else 1


def _cmd_fuzz_minimize(_, args) -> int:
    """Delta-debug one corpus entry down to a minimal failing grammar."""
    from .fuzz import FailureCorpus, minimize_grammar, oracle_predicate
    from .grammar.writer import write_arrow

    corpus_store = FailureCorpus(args.corpus)
    try:
        entry = corpus_store.get(args.fingerprint)
    except KeyError as error:
        return _usage_error(str(error))
    grammar = entry.grammar()
    predicate = oracle_predicate(
        entry.oracle, seed=entry.seed, clr_state_bound=args.clr_bound
    )
    if not predicate(grammar):
        print(f"{entry.fingerprint[:12]} [{entry.oracle}] no longer reproduces; "
              f"nothing to minimize")
        return 1
    result = minimize_grammar(grammar, predicate)
    text = write_arrow(result.grammar)
    entry.minimized_text = text
    corpus_store.update(entry)
    print(f"minimized {entry.fingerprint[:12]}: {result.describe()}")
    print(text, end="")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    return 0


#: Extensions ``repro batch`` picks up when no --pattern is given.
_BATCH_EXTENSIONS = (".y", ".cfg")


def _batch_worker(task: "tuple") -> dict:
    """Compile one grammar file; returns a plain-data row.

    Module-level and built from picklable plain data so the parallel
    executor can ship it to forked workers unchanged.
    """
    path, method, cache_dir, backend = task
    from .grammar.errors import GrammarError

    try:
        grammar = load_grammar_file(path)
        cache = TableCache(cache_dir, backend=backend) if cache_dir else None
        _, table = build_table(grammar, method, cache)
    except (GrammarError, OSError, ValueError) as error:
        return {"path": path, "status": "error", "detail": str(error)}
    except Exception as error:  # an unexpected blow-up is one ERROR row,
        # never a traceback that kills the whole batch (exit-code contract:
        # any failed grammar -> nonzero, the other rows still print).
        return {
            "path": path,
            "status": "error",
            "detail": f"internal error ({type(error).__name__}: {error})",
        }
    summary = table.conflict_summary()
    return {
        "path": path,
        "status": "ok",
        "grammar": grammar.name,
        "states": table.n_states,
        "deterministic": table.is_deterministic,
        "shift_reduce": summary["shift_reduce"],
        "reduce_reduce": summary["reduce_reduce"],
    }


def _cmd_batch(_, args) -> int:
    """Compile every grammar file in a directory through the pipeline."""
    import glob
    import os

    from .core.parallel import parallel_map

    if not os.path.isdir(args.directory):
        return _usage_error(f"not a directory: {args.directory}")
    if args.pattern:
        paths = sorted(glob.glob(os.path.join(args.directory, args.pattern)))
    else:
        paths = sorted(
            path
            for ext in _BATCH_EXTENSIONS
            for path in glob.glob(os.path.join(args.directory, f"*{ext}"))
        )
    paths = [path for path in paths if os.path.isfile(path)]
    if not paths:
        return _usage_error(f"no grammar files found in {args.directory}")
    tasks = [(path, args.method, args.cache, args.format) for path in paths]
    rows = parallel_map(_batch_worker, tasks, workers=args.workers)
    errors = conflicted = 0
    for row in rows:
        name = os.path.basename(row["path"])
        if row["status"] == "error":
            errors += 1
            print(f"ERROR {name}: {row['detail']}")
            continue
        verdict = "ok" if row["deterministic"] else "conflicted"
        if not row["deterministic"]:
            conflicted += 1
        print(f"{verdict:<10} {name}: {row['states']} states, "
              f"{row['shift_reduce']} s/r, {row['reduce_reduce']} r/r "
              f"[{args.method}]")
    print(f"batch: {len(rows)} grammars, "
          f"{len(rows) - errors - conflicted} clean, "
          f"{conflicted} conflicted, {errors} errors "
          f"(workers={args.workers})")
    return 1 if errors or conflicted else 0


def _cmd_serve(_, args) -> int:
    """Serve the pipeline over HTTP: compile/analyze/parse/fuzz + jobs + metrics."""
    from .service import GrammarService, serve_forever

    service = GrammarService(
        cache_dir=args.cache,
        cache_backend=args.format,
        hot_capacity=args.hot,
        job_workers=args.job_workers,
        queue_capacity=args.queue,
        pool_workers=args.workers,
        job_ttl=args.job_ttl,
    )
    return serve_forever(
        service,
        host=args.host,
        port=args.port,
        announce=lambda message: print(message, flush=True),
    )


def _report_budget_exceeded(error: BudgetExceeded) -> int:
    """Print the degradation diagnostics for a blown --timeout/--max-states."""
    print(f"budget exceeded: {error.describe()}", file=sys.stderr)
    for key, value in sorted(error.progress.items()):
        print(f"  {key}: {value}", file=sys.stderr)
    return 1


def _print_profile(collector: "instrument.ProfileCollector", json_path: str) -> None:
    print()
    print(collector.format())
    tokens = collector.counters.get("parse.tokens", 0)
    parse_seconds = collector.total("parse.run")
    if tokens and parse_seconds > 0:
        print(f"throughput: {tokens / parse_seconds:,.0f} tokens/sec "
              f"({tokens} tokens in {parse_seconds * 1e3:.3f} ms)")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(collector.to_json())
        print(f"wrote profile to {json_path}")


def main(argv: "Optional[List[str]]" = None) -> int:
    """Entry point: parse *argv* (default sys.argv) and run the command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LALR(1) look-ahead sets (DeRemer & Pennello) — grammar tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, cache: bool = False, **extra_args):
        command = sub.add_parser(name, help=fn.__doc__)
        command.add_argument("grammar", help="grammar file or corpus:<name>")
        command.add_argument("--profile", action="store_true",
                             help="print a per-phase timing/counter breakdown")
        command.add_argument("--profile-json", default="", metavar="FILE",
                             help="also write the profile as JSON to FILE")
        command.add_argument("--timeout", type=float, default=0.0, metavar="SEC",
                             help="abort the analysis after SEC wall-clock "
                                  "seconds (exit 1 with partial progress)")
        command.add_argument("--max-states", type=int, default=0, metavar="N",
                             help="abort once the automaton exceeds N states")
        if cache:
            command.add_argument(
                "--cache", nargs="?", const=default_cache_dir(), default="",
                metavar="DIR",
                help="load/store the parse table in an on-disk cache "
                     "(default DIR: $REPRO_TABLE_CACHE or the system tmp)",
            )
            command.add_argument(
                "--format", choices=["json", "bin"], default="json",
                help="table artifact format: readable JSON or the "
                     "versioned binary layout (loaded as a verified "
                     "copy, no JSON parse on the hot path)",
            )
        command.set_defaults(fn=fn)
        return command

    pipeline_cmd = add("pipeline", _cmd_pipeline, cache=True)
    pipeline_cmd.add_argument("--method", choices=BUILDERS, default="lalr1")
    pipeline_cmd.add_argument("--input", default="",
                              help="whitespace-separated terminals to parse")

    add("classify", _cmd_classify).add_argument(
        "--use-precedence", action="store_true",
        help="honour %%left/%%right declarations when judging conflicts",
    )
    add("la", _cmd_la)

    table_cmd = add("table", _cmd_table, cache=True)
    table_cmd.add_argument("--method", choices=BUILDERS, default="lalr1")
    table_cmd.add_argument("--print-states", type=int, default=0, metavar="N",
                           help="print at most N states of the table "
                                "(0 = all; --max-states is the build cap)")
    table_cmd.add_argument("--compress", choices=["none", "default", "displace"],
                           default="none",
                           help="also report a compressed representation: "
                                "'default' (sparse + default-reduce) or "
                                "'displace' (comb-packed check/value arrays)")
    table_cmd.add_argument("--output", "-o", default="", metavar="FILE",
                           help="write the table artifact to FILE "
                                "(binary when --format bin or FILE ends "
                                "in .rtb, else JSON)")

    states_cmd = add("states", _cmd_states)
    states_cmd.add_argument("--kernel", action="store_true")

    conflicts_cmd = add("conflicts", _cmd_conflicts)
    conflicts_cmd.add_argument("--method", choices=BUILDERS, default="lalr1")
    conflicts_cmd.add_argument("--explain", action="store_true",
                               help="print an example input reaching each conflict")

    parse_cmd = add("parse", _cmd_parse, cache=True)
    parse_cmd.add_argument("--input", required=True,
                           help="whitespace-separated terminal names")
    parse_cmd.add_argument("--method", choices=BUILDERS, default="lalr1")
    parse_cmd.add_argument("--engine", choices=["lr", "glr"], default="lr",
                           help="lr: deterministic engine (refuses conflicted "
                                "tables); glr: generalized engine exploring "
                                "every conflicted action")
    parse_cmd.add_argument("--tree", action="store_true")

    add("stats", _cmd_stats)

    generate_cmd = add("generate", _cmd_generate, cache=True)
    generate_cmd.add_argument("--method", choices=BUILDERS, default="lalr1")
    generate_cmd.add_argument("--output", "-o", default="",
                              help="write to file instead of stdout")
    generate_cmd.add_argument("--style", choices=["dict", "dense", "displace"],
                              default="dict",
                              help="emitted table representation: per-state "
                                   "dicts, flat array('i') matrices, or "
                                   "comb-packed arrays")

    dot_cmd = add("dot", _cmd_dot)
    dot_cmd.add_argument("--graph", choices=["automaton", "reads", "includes"],
                         default="automaton")
    dot_cmd.add_argument("--closure", action="store_true",
                         help="show full closures, not just kernels")

    add("lint", _cmd_lint)

    ambiguity_cmd = add("ambiguity", _cmd_ambiguity)
    ambiguity_cmd.add_argument("--bound", type=int, default=6,
                               help="max sentence length to search (default 6)")

    edit_cmd = add("edit", _cmd_edit)
    edit_cmd.add_argument("--set", action="append", default=[],
                          metavar="'INDEX: RHS'",
                          help="replace production INDEX's right-hand side "
                               "with the given tokens (repeatable; applied "
                               "in order through one live session)")
    edit_cmd.add_argument("--add", action="append", default=[],
                          metavar="'LHS: RHS'",
                          help="append production LHS -> RHS (a structural "
                               "delta: the session rebuilds)")
    edit_cmd.add_argument("--remove", action="append", type=int, default=[],
                          metavar="INDEX",
                          help="remove production INDEX (a structural delta)")
    edit_cmd.add_argument("--verify", action="store_true",
                          help="after the edits, check the session's table "
                               "is bit-identical to a from-scratch build")

    batch_cmd = sub.add_parser(
        "batch", help="compile every grammar file in a directory"
    )
    batch_cmd.add_argument("directory", help="directory of grammar files")
    batch_cmd.add_argument("--pattern", default="", metavar="GLOB",
                           help="file glob within the directory "
                                "(default: *.y and *.cfg)")
    batch_cmd.add_argument("--method", choices=BUILDERS, default="lalr1")
    batch_cmd.add_argument("--workers", type=int, default=1, metavar="N",
                           help="compile across N worker processes "
                                "(default 1)")
    batch_cmd.add_argument("--cache", nargs="?", const=default_cache_dir(),
                           default="", metavar="DIR",
                           help="load/store parse tables in an on-disk cache "
                                "(default DIR: $REPRO_TABLE_CACHE or the "
                                "system tmp)")
    batch_cmd.add_argument("--format", choices=["json", "bin"], default="json",
                           help="cache artifact format (JSON or versioned "
                                "binary)")
    batch_cmd.add_argument("--profile", action="store_true",
                           help="print a per-phase timing/counter breakdown")
    batch_cmd.add_argument("--profile-json", default="", metavar="FILE",
                           help="also write the profile as JSON to FILE")
    batch_cmd.set_defaults(fn=_cmd_batch)

    serve_cmd = sub.add_parser(
        "serve", help="serve the pipeline over HTTP (asyncio, stdlib only)"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8080,
                           help="listen port (0 = any free port; the bound "
                                "address is announced on stdout)")
    serve_cmd.add_argument("--cache", nargs="?", const=default_cache_dir(),
                           default=default_cache_dir(), metavar="DIR",
                           help="the shared table-artifact store backing "
                                "every request (default: $REPRO_TABLE_CACHE "
                                "or the system tmp; '' disables)")
    serve_cmd.add_argument("--format", choices=["json", "bin"], default="json",
                           help="cache artifact format (JSON or versioned "
                                "binary)")
    serve_cmd.add_argument("--hot", type=int, default=32, metavar="N",
                           help="in-memory hot-table LRU capacity, also the "
                                "grammar-handle memo's (default 32)")
    serve_cmd.add_argument("--workers", type=int, default=1, metavar="N",
                           help="process-pool workers for request execution "
                                "(1 = in-process; >1 forks N workers sharing "
                                "the on-disk table store; default 1)")
    serve_cmd.add_argument("--job-workers", type=int, default=2, metavar="N",
                           help="concurrent background jobs (default 2)")
    serve_cmd.add_argument("--queue", type=int, default=16, metavar="N",
                           help="bounded job-queue depth; submits beyond it "
                                "get 429 (default 16)")
    serve_cmd.add_argument("--job-ttl", type=float, default=3600.0, metavar="S",
                           help="seconds a finished job stays pollable before "
                                "eviction (0 disables; default 3600)")
    serve_cmd.set_defaults(fn=_cmd_serve)

    # `repro bench ...` is handed whole to the bench runner below; this
    # entry only lists it in `repro --help`.
    sub.add_parser(
        "bench", help="run a bench scenario against its committed baseline "
                      "(`repro bench --help`)"
    )

    fuzz_cmd = sub.add_parser(
        "fuzz", help="differential fuzzing of the equivalence theorem"
    )
    fuzz_sub = fuzz_cmd.add_subparsers(dest="fuzz_command", required=True)

    def add_fuzz(name, fn):
        command = fuzz_sub.add_parser(name, help=fn.__doc__)
        command.add_argument("--profile", action="store_true",
                             help="print a per-phase timing/counter breakdown")
        command.add_argument("--profile-json", default="", metavar="FILE",
                             help="also write the profile as JSON to FILE")
        command.add_argument("--clr-bound", type=int, default=60, metavar="N",
                             help="skip CLR-based oracles above N LR(0) states "
                                  "(0 = no bound; default 60)")
        command.set_defaults(fn=fn)
        return command

    fuzz_run = add_fuzz("run", _cmd_fuzz_run)
    fuzz_run.add_argument("--seed", type=int, default=0,
                          help="campaign seed; the whole sweep is a pure "
                               "function of it (default 0)")
    fuzz_run.add_argument("--count", type=int, default=500,
                          help="how many grammars to sweep (default 500)")
    fuzz_run.add_argument("--buckets", default="",
                          help="comma-separated shape buckets (default: all)")
    fuzz_run.add_argument("--oracles", default="",
                          help="comma-separated oracle names (default: all)")
    fuzz_run.add_argument("--corpus", default="", metavar="DIR",
                          help="persist distinct failures to this corpus dir")
    fuzz_run.add_argument("--edit-oracle", action="store_true",
                          help="also run the opt-in incremental-edit oracle "
                               "(session updates vs from-scratch rebuilds)")
    fuzz_run.add_argument("--time-budget", type=float, default=0.0, metavar="SEC",
                          help="stop sweeping after SEC wall-clock seconds")
    fuzz_run.add_argument("--timeout", type=float, default=0.0, metavar="SEC",
                          help="synonym for --time-budget (the uniform "
                               "budget flag)")
    fuzz_run.add_argument("--workers", type=int, default=1, metavar="N",
                          help="fan the sweep across N worker processes; "
                               "results are identical to --workers 1 "
                               "(default 1)")

    fuzz_replay = add_fuzz("replay", _cmd_fuzz_replay)
    fuzz_replay.add_argument("corpus", help="failure corpus directory")
    fuzz_replay.add_argument("--fingerprint", default="",
                             help="replay only the entry matching this "
                                  "fingerprint prefix")

    fuzz_minimize = add_fuzz("minimize", _cmd_fuzz_minimize)
    fuzz_minimize.add_argument("corpus", help="failure corpus directory")
    fuzz_minimize.add_argument("fingerprint",
                               help="fingerprint prefix of the entry to shrink")
    fuzz_minimize.add_argument("--output", "-o", default="",
                               help="also write the minimized grammar to a file")

    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv[:1] == ["bench"]:
        from .bench.runner import main as bench_main

        return bench_main(argv[1:])
    # Default command: `python -m repro <grammar> [flags]` runs `pipeline`.
    if argv and not argv[0].startswith("-") and argv[0] not in sub.choices:
        argv.insert(0, "pipeline")

    args = parser.parse_args(argv)
    # The fuzz subcommands drive whole grammar populations and take no
    # grammar-file positional of their own.
    needs_grammar = hasattr(args, "grammar")
    if getattr(args, "profile", False):
        with instrument.profile() as collector:
            grammar = _load(args.grammar) if needs_grammar else None
            try:
                code = args.fn(grammar, args)
            except BudgetExceeded as error:
                code = _report_budget_exceeded(error)
        _print_profile(collector, args.profile_json)
        return code
    grammar = _load(args.grammar) if needs_grammar else None
    try:
        return args.fn(grammar, args)
    except BudgetExceeded as error:
        return _report_budget_exceeded(error)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
