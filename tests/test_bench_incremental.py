"""Unit tests: the incremental-session benchmark.

The benchmark's job is to produce a *deterministic* snapshot — the
chosen edit recipe, the dirty-region size and the ``phase.*`` splice
counters must be pure functions of the grammar, because CI diffs them
against the committed ``BENCH_incremental.json``.  Wall times and the
derived speedup are context only and never asserted on here.
"""

import copy
import json

import pytest

from repro.bench.incremental import (
    bench_snapshot,
    find_splice_edit,
    measure_incremental,
)
from repro.bench.runner import FORMAT, compare, main
from repro.grammar.delta import replace_rhs
from repro.grammars import corpus
from repro.pipeline import AnalysisSession


@pytest.fixture(scope="module")
def expr():
    return corpus.load("expr").augmented()


class TestFindSpliceEdit:
    def test_recipe_actually_splices(self, expr):
        edit = find_splice_edit(expr)
        assert edit is not None
        index, position, replacement = edit
        production = expr.productions[index]
        assert production.rhs[position].is_terminal
        edited = replace_rhs(
            expr,
            index,
            tuple(
                replacement if i == position else s.name
                for i, s in enumerate(production.rhs)
            ),
        )
        session = AnalysisSession(expr)
        report = session.update(edited)
        assert report.strategy == "splice"
        assert not report.fell_back

    def test_deterministic(self, expr):
        assert find_splice_edit(expr) == find_splice_edit(expr)


class TestMeasureIncremental:
    def test_snapshot_row_shape(self, expr):
        entry = measure_incremental(expr)
        assert entry is not None
        assert set(entry) == {
            "full_seconds",
            "incremental_seconds",
            "speedup",
            "counters",
        }
        counters = entry["counters"]
        assert {"edit.production", "edit.position", "edit.replacement"} <= set(counters)
        assert 0 < counters["dirty_states"] < counters["total_states"]
        assert entry["full_seconds"] > 0
        assert entry["incremental_seconds"] > 0

    def test_counters_show_reuse_and_no_fallback(self, expr):
        entry = measure_incremental(expr)
        assert entry["counters"].get("phase.reuse", 0) > 0
        assert entry["counters"].get("phase.fallback", 0) == 0
        assert entry["counters"].get("phase.recompute", 0) == 0


class TestCompareBaseline:
    @pytest.fixture(scope="class")
    def snapshot(self):
        return {"format": FORMAT, "entries": bench_snapshot(["expr"])}

    def test_matching_snapshots_have_no_drift(self, snapshot):
        rows, drift = compare(snapshot, copy.deepcopy(snapshot))
        assert drift == []
        assert {row[0] for row in rows} == {"expr"}

    def test_counter_drift_is_reported(self, snapshot):
        baseline = copy.deepcopy(snapshot)
        baseline["entries"]["expr"]["counters"]["phase.reuse"] += 1
        _, drift = compare(snapshot, baseline)
        assert any("phase.reuse" in message for message in drift)

    def test_edit_recipe_drift_is_reported(self, snapshot):
        baseline = copy.deepcopy(snapshot)
        baseline["entries"]["expr"]["counters"]["edit.position"] += 1
        _, drift = compare(snapshot, baseline)
        assert any("edit.position" in message for message in drift)

    def test_missing_grammar_is_reported(self, snapshot):
        _, drift = compare(snapshot, {"format": FORMAT, "entries": {}})
        assert drift == ["expr: measured but not in the baseline"]

    def test_speedup_changes_are_not_drift(self, snapshot):
        # Wall-clock speedups vary across machines; only the
        # deterministic columns may fail the comparison.
        baseline = copy.deepcopy(snapshot)
        baseline["entries"]["expr"]["speedup"] *= 10
        _, drift = compare(snapshot, baseline)
        assert drift == []


class TestMain:
    def test_baseline_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        assert main(["incremental", "expr",
                     "--write-baseline", str(path)]) == 0
        snapshot = json.loads(path.read_text())
        assert "expr" in snapshot["entries"]
        assert main(["incremental", "expr", "--baseline", str(path)]) == 0
        out = capsys.readouterr().out
        assert "match the baseline" in out
