"""Unit tests: the benchmark harness and report formatting."""

from repro.bench import (
    METHODS,
    Timer,
    cost_row,
    dict_rows,
    format_series,
    format_table,
    grammar_row,
    measure_methods,
    speedup,
    sweep,
    time_callable,
)
from repro.grammars import corpus, expression_family


class TestMeasurement:
    def test_time_callable_positive(self):
        assert time_callable(lambda: sum(range(100)), repeats=3) >= 0

    def test_timer_context(self):
        with Timer() as timer:
            sum(range(1000))
        assert timer.seconds >= 0

    def test_measure_methods_all(self):
        times = measure_methods(corpus.load("expr"), repeats=1)
        assert set(times) == set(METHODS)
        assert all(t >= 0 for t in times.values())

    def test_measure_methods_subset(self):
        times = measure_methods(
            corpus.load("expr"), methods=["deremer_pennello"], repeats=1
        )
        assert list(times) == ["deremer_pennello"]

    def test_speedup(self):
        assert speedup({"a": 2.0, "b": 1.0}, "a", "b") == 2.0
        assert speedup({"a": 2.0, "b": 0.0}, "a", "b") == float("inf")

    def test_sweep(self):
        rows = sweep([1, 2], expression_family, lambda g: {"p": len(g.productions)})
        assert [n for n, _ in rows] == [1, 2]
        assert rows[1][1]["p"] > rows[0][1]["p"]


class TestRows:
    def test_grammar_row_keys(self):
        row = grammar_row(corpus.load("expr"))
        for key in ("terminals", "productions", "states",
                    "nonterminal_transitions", "includes_edges", "reads_sccs"):
            assert key in row

    def test_cost_row_keys(self):
        row = cost_row(corpus.load("expr"))
        assert {"dp_unions", "prop_links", "lr1_states", "lalr_states"} <= set(row)

    def test_cost_row_lr1_geq_lalr(self):
        row = cost_row(corpus.load("lr1_not_lalr"))
        assert row["lr1_states"] > row["lalr_states"]


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "n"], [["alpha", 1], ["b", 23]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "alpha" in text and "23" in text
        # Numeric column right-aligned: the 1 lines up under n's width.
        assert lines[-1].endswith("23")

    def test_format_table_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text

    def test_format_series(self):
        text = format_series(
            "n", {"dp": [0.1, 0.2], "merge": [0.3, 0.9]}, xs=[1, 2]
        )
        assert "dp" in text and "merge" in text
        assert text.splitlines()[0].startswith("n")

    def test_cell_rendering(self):
        text = format_table(["x"], [[True], [False], [0.00001], [123.456]])
        assert "yes" in text and "no" in text
        assert "1.00e-05" in text
        assert "123.5" in text

    def test_dict_rows(self):
        rows = dict_rows(
            [("g1", {"a": 1, "b": 2}), ("g2", {"a": 3})], columns=["a", "b"]
        )
        assert rows == [["g1", 1, 2], ["g2", 3, ""]]


class TestBaselineSnapshot:
    def make_snapshot(self):
        from repro.bench.harness import bench_snapshot
        from repro.bench.runner import FORMAT

        return {"format": FORMAT, "entries": bench_snapshot(["expr"])}

    def test_snapshot_shape(self):
        snapshot = self.make_snapshot()
        entry = snapshot["entries"]["expr"]
        assert entry["lookahead_seconds"] >= 0
        assert {"unions", "edges", "nonterminal_transitions"} <= set(entry["counters"])
        assert len(entry["counters"]["fingerprint"]) == 64
        # Per-phase instrument span totals of one pipeline run.
        assert "lalr.digraph.reads" in entry["phases"]
        assert "table.fill" in entry["phases"]

    def test_compare_identical_has_no_drift(self):
        from repro.bench.runner import compare

        snapshot = self.make_snapshot()
        rows, drift = compare(snapshot, snapshot)
        assert drift == []
        assert rows[0][:2] == ["expr", "lookahead_seconds"]
        # One row per phase, each unchanged.
        phases = {row[1] for row in rows[1:]}
        assert "phases.lalr.digraph.reads" in phases
        assert all(row[2] == row[3] for row in rows)

    def test_compare_flags_counter_drift(self):
        import copy

        from repro.bench.runner import compare

        snapshot = self.make_snapshot()
        tampered = copy.deepcopy(snapshot)
        tampered["entries"]["expr"]["counters"]["unions"] += 1
        _, drift = compare(snapshot, tampered)
        assert drift == ["expr: counter unions 29 -> 28"]

    def test_compare_flags_missing_grammar(self):
        from repro.bench.runner import FORMAT, compare

        snapshot = self.make_snapshot()
        _, drift = compare(snapshot, {"format": FORMAT, "entries": {}})
        assert drift == ["expr: measured but not in the baseline"]


class TestBaselineCli:
    def test_write_then_compare_round_trip(self, tmp_path, capsys):
        from repro.bench.runner import main

        path = str(tmp_path / "baseline.json")
        assert main(["core", "corpus:expr", "--write-baseline", path]) == 0
        assert main(["core", "corpus:expr", "--baseline", path]) == 0
        out = capsys.readouterr().out
        assert "core: counters match the baseline" in out

    def test_compare_exits_nonzero_on_drift(self, tmp_path, capsys):
        import json

        from repro.bench.runner import main

        path = tmp_path / "baseline.json"
        assert main(["core", "expr", "--write-baseline", str(path)]) == 0
        baseline = json.loads(path.read_text(encoding="utf-8"))
        baseline["entries"]["expr"]["counters"]["unions"] += 5
        path.write_text(json.dumps(baseline), encoding="utf-8")
        assert main(["core", "expr", "--baseline", str(path)]) == 1
        assert "drift" in capsys.readouterr().out
