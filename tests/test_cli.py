"""Integration tests: the command-line interface."""

import io
import os
import re
import subprocess
import sys
import textwrap
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main


def run(argv):
    captured = io.StringIO()
    with redirect_stdout(captured):
        code = main(argv)
    return code, captured.getvalue()


@pytest.fixture
def grammar_file(tmp_path):
    path = tmp_path / "g.cfg"
    path.write_text("E -> E + T | T\nT -> id\n")
    return str(path)


class TestPipelineCommand:
    def test_explicit_invocation(self, grammar_file):
        code, output = run(["pipeline", grammar_file])
        assert code == 0
        assert "method: lalr1" in output and "states:" in output

    def test_is_the_default_command(self, grammar_file):
        # `python -m repro <grammar>` with no command word runs pipeline.
        code, output = run([grammar_file])
        assert code == 0
        assert "method: lalr1" in output

    def test_conflicted_grammar_exit_code(self):
        code, output = run(["corpus:dangling_else"])
        assert code == 1
        assert "1 shift/reduce" in output

    def test_conflicted_grammar_input_falls_back_to_glr(self):
        code, output = run(
            ["corpus:dangling_else", "--input", "if other else other"]
        )
        assert code == 1  # nondeterministic table still exits 1
        assert "input: valid" in output
        code, output = run(["corpus:dangling_else", "--input", "else"])
        assert "input: invalid" in output

    def test_input_flag(self, grammar_file):
        code, output = run([grammar_file, "--input", "id + id"])
        assert code == 0 and "input: valid" in output
        code, output = run([grammar_file, "--input", "id +"])
        assert code == 1 and "input: invalid" in output


class TestProfileFlag:
    def test_phase_breakdown_covers_pipeline(self, grammar_file):
        code, output = run([grammar_file, "--profile"])
        assert code == 0
        assert "phase breakdown" in output
        for phase in ("lr0.build", "lalr.relations", "lalr.digraph.reads",
                      "lalr.digraph.includes", "table.fill"):
            assert phase in output, phase

    def test_counters_reported(self, grammar_file):
        _, output = run([grammar_file, "--profile"])
        assert "counters:" in output
        assert "digraph.unions" in output

    def test_throughput_on_parse(self, grammar_file):
        _, output = run([grammar_file, "--profile", "--input", "id + id"])
        assert "parse.run" in output
        assert "tokens/sec" in output

    def test_profile_json_written(self, grammar_file, tmp_path):
        import json

        json_path = tmp_path / "profile.json"
        _, output = run([grammar_file, "--profile",
                         "--profile-json", str(json_path)])
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert "lr0.build" in payload["phases"]
        assert payload["counters"]["lr0.states"] > 0

    def test_no_breakdown_without_flag(self, grammar_file):
        _, output = run([grammar_file])
        assert "phase breakdown" not in output

    def test_works_on_other_commands(self, grammar_file):
        code, output = run(["classify", grammar_file, "--profile"])
        assert code == 0
        assert "phase breakdown" in output


class TestCacheFlag:
    def test_miss_then_hit(self, grammar_file, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, output = run([grammar_file, "--cache", cache_dir])
        assert code == 0 and "cache: miss" in output
        code, output = run([grammar_file, "--cache", cache_dir])
        assert code == 0 and "cache: hit" in output

    def test_hit_shows_in_profile_counters(self, grammar_file, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run([grammar_file, "--cache", cache_dir])
        _, output = run([grammar_file, "--cache", cache_dir, "--profile"])
        assert "table.cache.hits" in output

    def test_corrupt_entry_rebuilds_silently(self, grammar_file, tmp_path):
        cache_dir = tmp_path / "cache"
        run([grammar_file, "--cache", str(cache_dir)])
        (entry,) = cache_dir.glob("*/*.rtb")  # entries live in shards
        entry.write_text('{"format": 1, "acti')  # torn file from a fake crash
        code, output = run([grammar_file, "--cache", str(cache_dir)])
        assert code == 0  # no traceback, just a rebuild
        assert "rebuilt (corrupt entry)" in output
        # The rebuild re-stored a good entry: next run is a clean hit.
        code, output = run([grammar_file, "--cache", str(cache_dir)])
        assert "cache: hit" in output

    def test_cache_const_default(self, grammar_file, tmp_path, monkeypatch):
        # Bare `--cache` uses $REPRO_TABLE_CACHE; the env var is read at
        # parser construction, so set it before invoking main().
        monkeypatch.setenv("REPRO_TABLE_CACHE", str(tmp_path / "env-cache"))
        code, output = run([grammar_file, "--cache"])
        assert code == 0
        assert str(tmp_path / "env-cache") in output

    def test_parse_command_honours_cache(self, grammar_file, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, _ = run(["parse", grammar_file, "--input", "id + id",
                       "--cache", cache_dir])
        assert code == 0
        code, _ = run(["parse", grammar_file, "--input", "id + id",
                       "--cache", cache_dir])
        assert code == 0


class TestClassify:
    def test_corpus_spec(self):
        code, output = run(["classify", "corpus:expr"])
        assert code == 0
        assert "class: SLR(1)" in output

    def test_file_spec(self, grammar_file):
        # Without the * level and parentheses this little grammar is LR(0).
        code, output = run(["classify", grammar_file])
        assert code == 0
        assert "class: LR(0)" in output

    def test_not_lr_k_reported(self):
        code, output = run(["classify", "corpus:reads_cycle"])
        assert "not LR(k) (reads cycle): True" in output
        assert "conflicts[clr1]: n/a" in output

    def test_use_precedence_flag(self):
        code, output = run(["classify", "corpus:expr_prec", "--use-precedence"])
        assert "LALR(1): True" in output


class TestLa:
    def test_prints_la_sets(self, grammar_file):
        code, output = run(["la", grammar_file])
        assert code == 0
        assert "LA(" in output and "Follow(" in output


class TestTable:
    def test_lalr_table_clean(self, grammar_file):
        code, output = run(["table", grammar_file])
        assert code == 0
        assert "acc" in output
        assert "0 shift/reduce" in output

    def test_exit_code_on_conflicts(self):
        code, output = run(["table", "corpus:dangling_else"])
        assert code == 1
        assert "1 shift/reduce" in output

    def test_method_selection(self, grammar_file):
        code, output = run(["table", grammar_file, "--method", "clr1"])
        assert code == 0

    def test_print_states_truncates(self, grammar_file):
        code, output = run(["table", grammar_file, "--print-states", "2"])
        assert "more states" in output


class TestTableArtifacts:
    def test_compress_displace_report(self, grammar_file):
        code, output = run(["table", grammar_file, "--compress", "displace"])
        assert code == 0
        assert "compression[displace]:" in output
        assert "comb slots" in output and "ratio" in output

    def test_compress_default_report(self, grammar_file):
        code, output = run(["table", grammar_file, "--compress", "default"])
        assert code == 0
        assert "compression[default]:" in output

    def test_compress_skipped_on_conflicts(self):
        code, output = run(
            ["table", "corpus:dangling_else", "--compress", "displace"]
        )
        assert code == 1
        assert "compression: skipped" in output

    def test_output_json_artifact(self, grammar_file, tmp_path):
        out = str(tmp_path / "table.json")
        code, output = run(["table", grammar_file, "--output", out])
        assert code == 0
        assert f"wrote {out}" in output and "json)" in output
        import json

        with open(out, "r", encoding="utf-8") as handle:
            assert "actions" in json.load(handle)

    def test_output_binary_by_extension(self, grammar_file, tmp_path):
        out = str(tmp_path / "table.rtb")
        code, output = run(["table", grammar_file, "-o", out])
        assert code == 0
        assert "binary)" in output
        with open(out, "rb") as handle:
            assert handle.read(4) == b"RPTB"

    def test_output_written_for_conflicted_table(self, tmp_path):
        # JSON format 4 / binary format 3 carry the conflict log, so a
        # conflicted table is a writable artifact (exit code still
        # signals nondeterminism).
        out = str(tmp_path / "table.rtb")
        code, output = run(["table", "corpus:dangling_else", "-o", out])
        assert code == 1
        assert f"wrote {out}" in output
        from repro.grammars import corpus
        from repro.tables import load_binary_table

        loaded = load_binary_table(
            out, corpus.load("dangling_else").augmented()
        )
        assert len(loaded.unresolved_conflicts) == 1


class TestBinaryCacheFlag:
    """The cache stores binary .rtb entries only; no flag picks a format."""

    def test_bin_backend_miss_then_hit(self, grammar_file, tmp_path):
        cache_dir = tmp_path / "cache"
        code, output = run([grammar_file, "--cache", str(cache_dir)])
        assert code == 0 and "cache: miss" in output
        assert list(cache_dir.glob("*/*.rtb"))  # entries live in shards
        code, output = run([grammar_file, "--cache", str(cache_dir)])
        assert code == 0 and "cache: hit" in output

    def test_backends_do_not_collide(self, grammar_file, tmp_path):
        # A JSON export where the retired JSON backend kept its entry
        # never satisfies the binary lookup.
        cache_dir = tmp_path / "cache"
        run([grammar_file, "--cache", str(cache_dir)])
        (entry,) = cache_dir.glob("*/*.rtb")
        legacy = entry.with_suffix(".json")
        run(["table", grammar_file, "-o", str(legacy)])
        entry.unlink()
        _, output = run([grammar_file, "--cache", str(cache_dir)])
        assert "cache: miss" in output
        assert legacy.exists()

    def test_corrupt_binary_entry_rebuilds(self, grammar_file, tmp_path):
        cache_dir = tmp_path / "cache"
        run([grammar_file, "--cache", str(cache_dir)])
        (entry,) = cache_dir.glob("*/*.rtb")  # entries live in shards
        entry.write_bytes(b"RPTB truncated mid-write")
        code, output = run([grammar_file, "--cache", str(cache_dir)])
        assert code == 0
        assert "rebuilt (corrupt entry)" in output

    def test_json_store_refused(self, grammar_file, tmp_path):
        from repro.tables import TableCache

        with pytest.raises(ValueError, match="backend"):
            TableCache(str(tmp_path), backend="json")
        # `serve --format` survives with `bin` as its only choice; every
        # other command lost the flag.
        for argv in (
            ["serve", "--format", "json"],
            ["table", grammar_file, "--format", "bin"],
        ):
            with pytest.raises(SystemExit) as exited:
                run(argv)
            assert exited.value.code == 2


class TestStatesAndConflicts:
    def test_states_dump(self, grammar_file):
        code, output = run(["states", grammar_file])
        assert code == 0
        assert "state 0" in output and "·" in output

    def test_states_kernel_only_smaller(self, grammar_file):
        _, full = run(["states", grammar_file])
        _, kernel = run(["states", grammar_file, "--kernel"])
        assert len(kernel) < len(full)

    def test_conflicts_clean(self, grammar_file):
        code, output = run(["conflicts", grammar_file])
        assert code == 0
        assert "no conflicts" in output

    def test_conflicts_reported(self):
        code, output = run(["conflicts", "corpus:lr1_not_lalr"])
        assert code == 1
        assert "reduce/reduce" in output


class TestParse:
    def test_valid(self, grammar_file):
        code, output = run(["parse", grammar_file, "--input", "id + id"])
        assert code == 0
        assert "valid" in output

    def test_invalid(self, grammar_file):
        code, output = run(["parse", grammar_file, "--input", "id +"])
        assert code == 1
        assert "invalid" in output

    def test_loads_neither_the_server_nor_asyncio(self):
        """``repro parse`` calls the served ``parse_result`` without the
        serving layer's start-up cost."""
        import repro

        script = textwrap.dedent(
            """
            import sys
            from repro.cli import main
            code = main(["parse", "corpus:expr", "--input", "id + id"])
            loaded = [m for m in ("asyncio", "repro.service.server") if m in sys.modules]
            print(code, loaded)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["valid", "0 []"]

    def test_tree_flag(self, grammar_file):
        code, output = run(["parse", grammar_file, "--input", "id", "--tree"])
        assert "E" in output and "id" in output

    def test_lr_engine_refuses_conflicted_table(self, capsys):
        code, output = run(
            ["parse", "corpus:dangling_else", "--input", "other"]
        )
        assert code == 1
        assert "unresolved conflict" in capsys.readouterr().err

    def test_glr_engine_parses_conflicted_table(self):
        code, output = run(
            ["parse", "corpus:dangling_else", "--engine", "glr",
             "--input", "if other else other"]
        )
        assert code == 0
        assert "valid (1 parse tree)" in output

    def test_glr_engine_counts_ambiguous_readings(self):
        code, output = run(
            ["parse", "corpus:dangling_else", "--engine", "glr",
             "--input", "if if other else other"]
        )
        assert code == 0
        assert "valid (2 parse trees)" in output

    def test_glr_engine_reports_syntax_errors(self):
        code, output = run(
            ["parse", "corpus:dangling_else", "--engine", "glr",
             "--input", "else"]
        )
        assert code == 1
        assert "invalid: syntax error at position 0" in output

    def test_glr_engine_matches_lr_on_deterministic_grammar(self, grammar_file):
        lr_code, lr_output = run(
            ["parse", grammar_file, "--input", "id + id", "--tree"]
        )
        glr_code, glr_output = run(
            ["parse", grammar_file, "--engine", "glr",
             "--input", "id + id", "--tree"]
        )
        assert (lr_code, lr_output.replace("valid", "", 1)) == (
            glr_code, glr_output.replace("valid (1 parse tree)", "", 1)
        )


_CONFLICTED_DANGLING_ELSE = (
    "error: table for 'dangling_else' has 1 unresolved conflict(s); first: "
    "state 4, lookahead 'else': shift/reduce between shift -> 6 and reduce "
    "then_else -> %empty (UNRESOLVED).  The deterministic engine would "
    "silently parse with the yacc-default winners — pass "
    "allow_conflicts=True to opt in, or use the GLR engine "
    "(repro.parser.glr.GlrParser, `repro parse --engine glr`) to explore "
    "every action\n"
)


class TestParseOutputPinned:
    """The exact stdout, stderr and exit code of ``repro parse``, one
    case per answer the verb can give."""

    CASES = {
        "lr-valid": (
            ["expr_file", "--input", "id + id"], 0, "valid\n", "",
        ),
        "lr-invalid": (
            ["expr_file", "--input", "id +"], 1,
            "invalid: syntax error at position 2: unexpected end of input; "
            "expected one of: id\n",
            "",
        ),
        "lr-tree": (
            ["expr_file", "--input", "id + id", "--tree"], 0,
            "valid\nE\n  E\n    T\n      id\n  +\n  T\n    id\n", "",
        ),
        "lr-conflicted": (
            ["corpus:dangling_else", "--input", "other"], 1,
            "", _CONFLICTED_DANGLING_ELSE,
        ),
        "glr-one-tree": (
            ["corpus:dangling_else", "--engine", "glr",
             "--input", "if other else other"], 0,
            "valid (1 parse tree)\n", "",
        ),
        "glr-two-trees": (
            ["corpus:dangling_else", "--engine", "glr",
             "--input", "if if other else other"], 0,
            "valid (2 parse trees)\n", "",
        ),
        "glr-capped-count": (
            ["ambiguous_file", "--engine", "glr", "--input", " ".join(["a"] * 9)],
            0, "valid (1000+ parse trees)\n", "",
        ),
        "glr-tree": (
            ["corpus:dangling_else", "--engine", "glr",
             "--input", "if other else other", "--tree"], 0,
            "valid (1 parse tree)\nS\n  if\n  S\n    other\n  then_else\n"
            "    else\n    S\n      other\n",
            "",
        ),
        "glr-invalid": (
            ["corpus:dangling_else", "--engine", "glr", "--input", "else"], 1,
            "invalid: syntax error at position 0: unexpected else; "
            "expected one of: if, other\n",
            "",
        ),
        "timeout": (
            ["corpus:expr", "--input", "id", "--timeout", "1e-9"], 1, "",
            "budget exceeded: budget exceeded in phase 'lr0' after <t>s: "
            "timeout limit of 1e-09 hit (progress: checks=1)\n  checks: 1\n",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_output(self, case, tmp_path, capsys):
        argv, code, stdout, stderr = self.CASES[case]
        files = {
            "expr_file": "E -> E + T | T\nT -> id\n",
            "ambiguous_file": "E -> E E | a\n",
        }
        if argv[0] in files:
            path = tmp_path / "g.cfg"
            path.write_text(files[argv[0]])
            argv = [str(path)] + argv[1:]
        assert main(["parse"] + argv) == code
        out, err = capsys.readouterr()
        # The elapsed time is the one figure a run cannot fix.
        err = re.sub(r"after \d+\.\d\ds:", "after <t>s:", err)
        assert (out, err) == (stdout, stderr)


class TestStats:
    def test_metrics_listed(self, grammar_file):
        code, output = run(["stats", grammar_file])
        assert code == 0
        assert "states" in output and "includes_edges" in output


class TestGenerateAndDot:
    def test_generate_stdout(self, grammar_file):
        code, output = run(["generate", grammar_file])
        assert code == 0
        assert "GENERATED" in output and "def parse(" in output

    def test_generate_to_file_and_use(self, grammar_file, tmp_path):
        out_path = tmp_path / "gen_parser.py"
        code, output = run(["generate", grammar_file, "-o", str(out_path)])
        assert code == 0 and "wrote" in output
        import types

        module = types.ModuleType("g")
        exec(compile(out_path.read_text(), str(out_path), "exec"), module.__dict__)
        assert module.accepts("id + id".split())
        assert not module.accepts("id +".split())

    @pytest.mark.parametrize("style", ["dense", "displace"])
    def test_generate_style_flag(self, grammar_file, tmp_path, style):
        out_path = tmp_path / f"gen_{style}.py"
        code, output = run(
            ["generate", grammar_file, "--style", style, "-o", str(out_path)]
        )
        assert code == 0 and "wrote" in output
        import types

        module = types.ModuleType(f"g_{style}")
        exec(compile(out_path.read_text(), str(out_path), "exec"), module.__dict__)
        assert module.accepts("id + id".split())
        assert not module.accepts("id +".split())

    def test_generate_refuses_conflicted(self):
        with pytest.raises(ValueError):
            run(["generate", "corpus:dangling_else"])

    def test_dot_automaton(self, grammar_file):
        code, output = run(["dot", grammar_file])
        assert code == 0
        assert output.startswith("digraph lr0 {")

    def test_dot_reads_highlights(self):
        code, output = run(["dot", "corpus:reads_cycle", "--graph", "reads"])
        assert code == 0
        assert "fillcolor" in output

    def test_dot_includes(self, grammar_file):
        code, output = run(["dot", grammar_file, "--graph", "includes"])
        assert code == 0
        assert output.startswith("digraph includes {")


class TestConflictExplain:
    def test_explain_flag(self):
        code, output = run(["conflicts", "corpus:dangling_else", "--explain"])
        assert code == 1
        assert "example:" in output
        assert "if other · else" in output

    def test_explain_silent_when_clean(self, grammar_file):
        code, output = run(["conflicts", grammar_file, "--explain"])
        assert code == 0 and "example" not in output


class TestLintCommand:
    def test_clean_grammar(self, grammar_file):
        code, output = run(["lint", grammar_file])
        assert code == 0 and "clean" in output

    def test_error_exit_code(self):
        code, output = run(["lint", "corpus:reads_cycle"])
        assert code == 1
        assert "derivation-cycle" in output


class TestAmbiguityCommand:
    def test_ambiguous_grammar(self):
        code, output = run(["ambiguity", "corpus:dangling_else"])
        assert code == 1
        assert "verdict: ambiguous" in output and "witness:" in output

    def test_unambiguous_within_bound(self, grammar_file):
        code, output = run(["ambiguity", grammar_file, "--bound", "5"])
        assert code == 0
        assert "unambiguous-within" in output

    def test_cyclic_reported(self, tmp_path):
        path = tmp_path / "cyc.cfg"
        path.write_text("A -> B | a\nB -> A\n")
        code, output = run(["ambiguity", str(path)])
        assert code == 1 and "cyclic" in output


class TestEditCommand:
    def test_rhs_edit_splices_and_verifies(self):
        code, output = run(
            ["edit", "corpus:expr", "--set", "1: E * T", "--verify"]
        )
        assert code == 1  # the edited grammar is conflicted
        assert "splice (rhs)" in output
        assert "states recomputed" in output
        assert "2 shift/reduce" in output
        assert "bit-identical to a from-scratch build" in output

    def test_guard_fallback_still_verifies(self):
        # T -> T * id re-shapes state 10: the splice must fall back, and
        # --verify must still certify the rebuilt table.
        code, output = run(
            ["edit", "corpus:expr", "--set", "3: T * id", "--verify"]
        )
        assert code == 0
        assert "rebuild (rhs)" in output
        assert "bit-identical to a from-scratch build" in output

    def test_self_edit_is_a_noop(self):
        code, output = run(["edit", "corpus:expr", "--set", "5: ( E )"])
        assert code == 0
        assert "noop (identical)" in output

    def test_add_is_a_structural_rebuild(self):
        code, output = run(
            ["edit", "corpus:expr", "--add", "F: num", "--verify"]
        )
        assert code == 0
        assert "rebuild (terminal-set)" in output
        assert "states: 14" in output

    def test_no_edits_is_a_usage_error(self, capsys):
        assert main(["edit", "corpus:expr"]) == 2
        assert "no edits given" in capsys.readouterr().err

    def test_bad_index_is_a_usage_error(self, capsys):
        assert main(["edit", "corpus:expr", "--set", "99: id"]) == 2
        assert "--set" in capsys.readouterr().err

    @pytest.mark.parametrize("index", ["-7", "-1"])
    def test_negative_set_index_is_a_usage_error(self, capsys, index):
        # -7 would reach the augmented start production of expr.
        assert main(["edit", "corpus:expr", f"--set={index}: id"]) == 2
        err = capsys.readouterr().err
        assert "--set" in err and "out of range" in err

    @pytest.mark.parametrize("index", ["-7", "-1"])
    def test_negative_remove_index_is_a_usage_error(self, capsys, index):
        assert main(["edit", "corpus:expr", "--remove", index]) == 2
        err = capsys.readouterr().err
        assert "--remove" in err and "out of range" in err
