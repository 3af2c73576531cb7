"""Satellite: parallel campaign/batch determinism.

``repro fuzz run --workers N`` must produce the same report, the same
corpus directory (byte for byte) and the same exit code as
``--workers 1``; likewise ``repro batch --workers N``.  On platforms
without ``fork`` the executor falls back to serial, so these tests hold
everywhere (they just stop exercising true parallelism).
"""

import io
import os
from contextlib import redirect_stdout

import pytest

from repro.cli import main
from repro.fuzz.campaign import CampaignConfig, run_campaign
from repro.fuzz.corpus import FailureCorpus
from repro.fuzz.oracles import ORACLES

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "grammars"
)


def run(argv):
    captured = io.StringIO()
    with redirect_stdout(captured):
        code = main(argv)
    return code, captured.getvalue()


@pytest.fixture
def tiny_state_oracle():
    """A deterministic oracle that fails on a subset of draws, so the
    dedup/corpus paths get exercised without a real bug."""

    def tiny(ctx):
        if len(ctx.automaton) <= 5:
            return f"synthetic: only {len(ctx.automaton)} states"
        return None

    ORACLES["test-tiny-state"] = tiny
    yield "test-tiny-state"
    del ORACLES["test-tiny-state"]


def corpus_bytes(directory):
    """{relative path: file bytes} for every file under *directory*."""
    snapshot = {}
    for root, _dirs, files in os.walk(directory):
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                snapshot[os.path.relpath(path, directory)] = handle.read()
    return snapshot


class TestCampaignDeterminism:
    def test_reports_match_workers_1_vs_4(self, tiny_state_oracle):
        config = CampaignConfig(
            seed=11, count=60, oracles=[tiny_state_oracle]
        )
        serial = run_campaign(config, workers=1)
        fanned = run_campaign(config, workers=4)
        assert fanned.grammars_run == serial.grammars_run
        assert fanned.per_bucket == serial.per_bucket
        assert fanned.generation_errors == serial.generation_errors
        assert fanned.duplicate_failures == serial.duplicate_failures
        assert [f.fingerprint for f in fanned.failures] == [
            f.fingerprint for f in serial.failures
        ]
        assert [f.describe() for f in fanned.failures] == [
            f.describe() for f in serial.failures
        ]

    def test_corpus_dirs_byte_identical(self, tiny_state_oracle, tmp_path):
        config = CampaignConfig(
            seed=11, count=60, oracles=[tiny_state_oracle]
        )
        serial_dir = tmp_path / "serial"
        fanned_dir = tmp_path / "fanned"
        serial = run_campaign(
            config, corpus=FailureCorpus(str(serial_dir)), workers=1
        )
        fanned = run_campaign(
            config, corpus=FailureCorpus(str(fanned_dir)), workers=4
        )
        assert serial.new_corpus_entries == fanned.new_corpus_entries > 0
        assert corpus_bytes(str(serial_dir)) == corpus_bytes(str(fanned_dir))

    def test_cli_exit_code_and_output_match(self, tiny_state_oracle):
        base = ["fuzz", "run", "--seed", "11", "--count", "40",
                "--oracles", tiny_state_oracle]
        code1, out1 = run(base + ["--workers", "1"])
        code4, out4 = run(base + ["--workers", "4"])
        assert code1 == code4 == 1

        def stable(text):
            return [line for line in text.splitlines()
                    if not line.startswith("elapsed:")]

        assert stable(out1) == stable(out4)

    def test_clean_campaign_parallel_exits_zero(self):
        code, output = run(["fuzz", "run", "--seed", "1", "--count", "20",
                            "--workers", "2"])
        assert code == 0
        assert "verdict: clean" in output


class TestBatchVerb:
    def test_compiles_examples_directory(self):
        code, output = run(["batch", EXAMPLES_DIR])
        assert code == 1  # statements.y has a dangling-else conflict
        assert "calc.y" in output and "lvalue.cfg" in output
        assert "conflicted statements.y" in output

    def test_workers_output_identical(self):
        code1, out1 = run(["batch", EXAMPLES_DIR, "--workers", "1"])
        code2, out2 = run(["batch", EXAMPLES_DIR, "--workers", "2"])
        assert code1 == code2
        assert out1.replace("workers=1", "") == out2.replace("workers=2", "")

    def test_pattern_filters_files(self):
        code, output = run(["batch", EXAMPLES_DIR, "--pattern", "calc.y"])
        assert code == 0
        assert "lvalue.cfg" not in output
        assert "batch: 1 grammars" in output

    def test_missing_directory_is_usage_error(self, capsys):
        code, _ = run(["batch", "/no/such/dir"])
        assert code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_empty_match_is_usage_error(self, tmp_path, capsys):
        code, _ = run(["batch", str(tmp_path)])
        assert code == 2
        assert "no grammar files" in capsys.readouterr().err

    def test_unreadable_grammar_counts_as_error(self, tmp_path):
        good = tmp_path / "good.y"
        good.write_text("%token a\n%%\ns : a ;\n")
        bad = tmp_path / "bad.y"
        bad.write_text("%% : : garbage ( ;\n")
        code, output = run(["batch", str(tmp_path)])
        assert code == 1
        assert "ERROR bad.y" in output
        assert "1 errors" in output

    def test_cache_round_trip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code1, _ = run(["batch", EXAMPLES_DIR, "--pattern", "calc.y",
                        "--cache", cache_dir])
        code2, out2 = run(["batch", EXAMPLES_DIR, "--pattern", "calc.y",
                           "--cache", cache_dir, "--workers", "2"])
        assert code1 == code2 == 0
        assert "17 states" in out2


class TestBatchExitContract:
    """The exit-code contract callers script against: 0 = every grammar
    compiled clean, 1 = any compile failure or conflict (including
    *unexpected* internal errors — one bad grammar is an ERROR row, not
    a traceback that kills the batch), 2 = usage error."""

    def test_all_clean_exits_zero(self, tmp_path):
        (tmp_path / "a.cfg").write_text("S -> a S | a\n")
        (tmp_path / "b.cfg").write_text("E -> E + id | id\n")
        code, output = run(["batch", str(tmp_path)])
        assert code == 0
        assert "2 clean, 0 conflicted, 0 errors" in output

    def test_any_failed_compile_exits_nonzero(self, tmp_path):
        (tmp_path / "good.cfg").write_text("S -> a\n")
        (tmp_path / "broken.cfg").write_text("S -> -> ;;\n")
        code, output = run(["batch", str(tmp_path)])
        assert code == 1
        assert "ERROR broken.cfg" in output
        assert "ok" in output  # the good grammar still compiled and printed

    def test_unexpected_exception_is_an_error_row_not_a_crash(
        self, tmp_path, monkeypatch
    ):
        import repro.cli as cli

        def explode(grammar, **kwargs):
            raise RuntimeError("simulated builder bug")

        monkeypatch.setitem(cli.BUILDERS, "lalr1", explode)
        (tmp_path / "g.cfg").write_text("S -> a\n")
        code, output = run(["batch", str(tmp_path)])
        assert code == 1
        assert "ERROR g.cfg" in output
        assert "internal error (RuntimeError: simulated builder bug)" in output
        assert "1 errors" in output

    def test_usage_errors_exit_two_not_one(self, tmp_path, capsys):
        assert run(["batch", str(tmp_path / "missing")])[0] == 2
        capsys.readouterr()
