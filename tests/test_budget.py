"""Tests for cooperative resource governance (repro.core.budget).

One Budget instance governs one request end to end; these tests pin
down each limit (states, digraph steps, tokens, parse steps, wall
clock) at the layer that charges it, plus the diagnostics carried by
BudgetExceeded, the instrument counters, the parallel executor's
deadline enforcement, and the CLI surface.
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.automaton import LR0Automaton
from repro.core import Budget, BudgetExceeded, LalrAnalysis, instrument
from repro.core.parallel import fork_available, parallel_imap
from repro.grammar import load_grammar
from repro.grammars import corpus, state_explosion_family
from repro.parser import Parser
from repro.tables import build_lalr_table


def expr():
    return corpus.load("expr", augment=True)


class TestBudgetBasics:
    def test_no_limits_is_a_pass_through(self):
        budget = Budget()
        budget.enter_phase("anything")
        budget.charge_states(10**9)
        budget.charge_digraph(10**9)
        budget.charge_tokens(10**9)
        for _ in range(200):
            budget.charge_parse_step()
            budget.tick()
        assert budget.remaining() is None
        assert not budget.expired()
        assert not budget.exceeded

    @pytest.mark.parametrize("kwargs", [
        {"timeout": -1},
        {"max_states": 0},
        {"max_digraph_steps": 0},
        {"max_tokens": -3},
        {"max_parse_steps": 0},
    ])
    def test_limits_validated(self, kwargs):
        with pytest.raises(ValueError):
            Budget(**kwargs)

    def test_remaining_and_elapsed(self):
        budget = Budget(timeout=100.0)
        assert 0.0 <= budget.elapsed() < 10.0
        assert 0.0 < budget.remaining() <= 100.0
        assert Budget().remaining() is None

    def test_expired_poll_does_not_raise(self):
        assert Budget(timeout=0.0).expired()
        assert not Budget().expired()
        assert not Budget(timeout=60.0).expired()

    def test_exception_carries_diagnostics(self):
        budget = Budget(max_states=3)
        budget.enter_phase("lr0")
        with pytest.raises(BudgetExceeded) as info:
            budget.charge_states(4)
        error = info.value
        assert error.phase == "lr0"
        assert error.resource == "max_states"
        assert error.limit == 3
        assert error.elapsed >= 0.0
        assert error.progress["states"] == 4
        assert "phase 'lr0'" in error.describe()
        assert "max_states limit of 3" in error.describe()
        assert budget.exceeded


class TestAutomatonBudget:
    def test_max_states_caps_lr0_construction(self):
        with pytest.raises(BudgetExceeded) as info:
            LR0Automaton(expr(), budget=Budget(max_states=5))
        assert info.value.resource == "max_states"
        assert info.value.phase == "lr0"
        assert info.value.progress["states"] == 6

    def test_generous_cap_builds_identically(self):
        governed = LR0Automaton(expr(), budget=Budget(max_states=10_000))
        plain = LR0Automaton(expr())
        assert len(governed.states) == len(plain.states)

    def test_timeout_stops_pathological_grammar_promptly(self):
        # The tier-1 timeout-regression check: an exponential-state
        # grammar must raise within the deadline's order of magnitude,
        # not run the build to completion (~2^18 states here).
        grammar = state_explosion_family(18).augmented()
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as info:
            LR0Automaton(grammar, budget=Budget(timeout=0.05))
        wall = time.perf_counter() - start
        assert info.value.resource == "timeout"
        assert info.value.phase == "lr0"
        assert info.value.progress["states"] > 0  # partial progress reported
        assert wall < 2.0  # strided clock checks stay responsive


class TestAnalysisBudget:
    def test_max_digraph_steps(self):
        with pytest.raises(BudgetExceeded) as info:
            LalrAnalysis(expr(), budget=Budget(max_digraph_steps=5))
        assert info.value.resource == "max_digraph_steps"
        assert info.value.phase.startswith("digraph.")

    def test_generous_budget_matches_ungoverned_lookaheads(self):
        grammar = expr()  # symbols are interned per load: share the grammar
        governed = LalrAnalysis(grammar, budget=Budget(timeout=60.0,
                                                       max_states=10_000))
        plain = LalrAnalysis(grammar)
        assert governed.lookahead_table() == plain.lookahead_table()

    def test_table_build_respects_budget(self):
        with pytest.raises(BudgetExceeded):
            build_lalr_table(expr(), budget=Budget(max_states=3))
        governed = build_lalr_table(expr(), budget=Budget(max_states=10_000))
        assert governed.n_states == build_lalr_table(expr()).n_states


class TestEngineBudget:
    @pytest.fixture
    def parser(self):
        grammar = load_grammar("S -> S a | a").augmented()
        return Parser(build_lalr_table(grammar))

    def test_max_tokens_guards_unbounded_streams(self, parser):
        def endless():
            while True:
                yield "a"

        with pytest.raises(BudgetExceeded) as info:
            parser.parse(endless(), budget=Budget(max_tokens=100))
        assert info.value.resource == "max_tokens"
        assert info.value.phase == "parse"
        assert info.value.progress["tokens"] == 101

    def test_max_parse_steps(self, parser):
        with pytest.raises(BudgetExceeded) as info:
            parser.parse(["a"] * 50, budget=Budget(max_parse_steps=10))
        assert info.value.resource == "max_parse_steps"

    def test_generous_budget_parses_normally(self, parser):
        budget = Budget(max_tokens=100, max_parse_steps=1000, timeout=60.0)
        tree = parser.parse(["a", "a", "a"], budget=budget)
        assert tree is not None
        assert budget.tokens == 3


class TestParallelBudget:
    def test_serial_path_stops_at_deadline(self):
        seen = list(parallel_imap(abs, [1, -2, 3], workers=1,
                                  budget=Budget(timeout=0.0)))
        assert seen == []

    def test_serial_path_without_budget_unchanged(self):
        assert list(parallel_imap(abs, [1, -2, 3], workers=1)) == [1, 2, 3]

    @pytest.mark.skipif(not fork_available(), reason="needs fork workers")
    def test_deadline_cancels_in_flight_workers(self):
        start = time.perf_counter()
        seen = list(parallel_imap(_sleep_and_return, [0.0, 30.0, 30.0],
                                  workers=2, budget=Budget(timeout=0.5)))
        wall = time.perf_counter() - start
        # The 30s sleepers must be terminated, not waited for.
        assert wall < 10.0
        assert seen in ([], [0.0])


def _sleep_and_return(seconds):
    """Module-level so the fork pool can pickle it."""
    time.sleep(seconds)
    return seconds


class TestCampaignBudget:
    def test_sweep_stops_early_and_reports_it(self):
        from repro.fuzz import CampaignConfig, run_campaign

        config = CampaignConfig(seed=3, count=100_000, time_budget=0.2)
        start = time.perf_counter()
        report = run_campaign(config)
        wall = time.perf_counter() - start
        assert report.stopped_early
        assert report.grammars_run < config.count
        assert wall < 30.0
        assert any("stopped early" in line for line in report.summary_lines())


class TestInstrumentCounters:
    def test_budget_checks_published_under_profile(self):
        with instrument.profile() as collector:
            build_lalr_table(expr(), budget=Budget(max_states=10_000))
        assert collector.counters.get("budget.checks", 0) > 0
        assert "budget.exceeded" not in collector.counters

    def test_exceeded_counter(self):
        with instrument.profile() as collector:
            with pytest.raises(BudgetExceeded):
                build_lalr_table(expr(), budget=Budget(max_states=3))
        assert collector.counters.get("budget.exceeded") == 1

    def test_no_budget_publishes_nothing(self):
        with instrument.profile() as collector:
            build_lalr_table(expr())
        assert "budget.checks" not in collector.counters


class TestCliBudget:
    def run(self, argv):
        from repro.cli import main

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    def test_max_states_flag(self):
        code, _, err = self.run(["table", "corpus:expr", "--max-states", "5"])
        assert code == 1
        assert "budget exceeded" in err
        assert "phase 'lr0'" in err and "max_states limit of 5" in err
        assert "states:" in err  # partial progress is reported

    def test_timeout_flag(self):
        code, _, err = self.run(["la", "corpus:expr", "--timeout", "1e-9"])
        assert code == 1
        assert "timeout limit" in err

    def test_generous_budget_is_invisible(self):
        code, out, err = self.run(
            ["pipeline", "corpus:expr", "--timeout", "60",
             "--max-states", "10000", "--input", "id + id"]
        )
        assert code == 0
        assert "input: valid" in out
        assert err == ""

    def test_profile_shows_governance_counters(self):
        code, out, _ = self.run(
            ["table", "corpus:expr", "--max-states", "10000", "--profile"]
        )
        assert code == 0
        assert "budget.checks" in out


class TestBenchBudget:
    """``repro.bench.harness.BUDGET_SECONDS`` gives each grammar of the
    ``core`` scenario a deadline; a grammar that blows it is reported as
    a skipped entry instead of hanging the sweep."""

    def test_pathological_grammar_reports_not_hangs(self, monkeypatch):
        from repro.bench import harness
        from repro.bench.runner import main as bench_main

        monkeypatch.setattr(harness, "BUDGET_SECONDS", 1e-9)
        out = io.StringIO()
        with redirect_stdout(out):
            code = bench_main(["core", "expr"])
        assert code == 0
        assert "budget exceeded" in out.getvalue()

    def test_budget_marker_rows_surface_as_drift(self, monkeypatch):
        from repro.bench import harness
        from repro.bench.runner import FORMAT, compare

        baseline = {"format": FORMAT, "entries": harness.bench_snapshot(["expr"])}
        monkeypatch.setattr(harness, "BUDGET_SECONDS", 1e-9)
        current = {"format": FORMAT, "entries": harness.bench_snapshot(["expr"])}
        skipped = current["entries"]["expr"]["skipped"]
        assert skipped.startswith("budget exceeded")
        rows, drift = compare(current, baseline)
        assert rows == []
        assert drift == [f"expr: skipped None -> {skipped!r}"]
