"""Unit tests: the GLR bench harness (LALR vs GLR vs CYK)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.glr import glr_snapshot
from repro.bench.runner import FORMAT, compare, main


@pytest.fixture(scope="module")
def glr_snap():
    return {"format": FORMAT, "entries": glr_snapshot(["expr", "dangling_else"])}


class TestGlrSnapshot:
    def test_shape_and_counters(self, glr_snap):
        assert set(glr_snap["entries"]) == {"expr", "dangling_else"}
        expr = glr_snap["entries"]["expr"]["counters"]
        assert expr["unresolved_conflicts"] == 0
        assert expr["workload_tokens"] > 0
        assert expr["shifts"] == expr["workload_tokens"]
        assert expr["gss_nodes"] > 0
        assert expr["reductions"] >= expr["sppf_families"] > 0
        conflicted = glr_snap["entries"]["dangling_else"]["counters"]
        assert conflicted["unresolved_conflicts"] == 1
        for entry in glr_snap["entries"].values():
            throughput = entry["throughput"]
            assert throughput["lalr_tokens_per_sec"] > 0
            assert throughput["glr_tokens_per_sec"] > 0
            assert throughput["cyk_tokens_per_sec"] > 0
            assert throughput["glr_overhead"] > 0

    def test_counters_are_deterministic(self, glr_snap):
        again = glr_snapshot(["expr", "dangling_else"])
        for name in ("expr", "dangling_else"):
            assert (
                again[name]["counters"]
                == glr_snap["entries"][name]["counters"]
            )

    def test_compare_identical_has_no_drift(self, glr_snap):
        rows, drift = compare(glr_snap, glr_snap)
        assert drift == []
        assert rows

    def test_compare_flags_counter_drift(self, glr_snap):
        mutated = copy.deepcopy(glr_snap)
        mutated["entries"]["expr"]["counters"]["gss_edges"] += 1
        _, drift = compare(mutated, glr_snap)
        assert any("gss_edges" in message for message in drift)

    def test_compare_flags_format_mismatch(self, glr_snap):
        mutated = copy.deepcopy(glr_snap)
        mutated["format"] = 99
        _, drift = compare(mutated, glr_snap)
        assert any("format" in message for message in drift)

    def test_write_then_compare_round_trip(self, tmp_path, capsys):
        baseline = tmp_path / "glr.json"
        assert main(["glr", "expr", "--write-baseline", str(baseline)]) == 0
        assert main(["glr", "expr", "--baseline", str(baseline)]) == 0
        assert "match the baseline" in capsys.readouterr().out

    def test_compare_exits_nonzero_on_drift(self, tmp_path, capsys, glr_snap):
        mutated = copy.deepcopy(glr_snap)
        mutated["entries"]["expr"]["counters"]["workload_tokens"] = 999
        baseline = tmp_path / "drifted.json"
        baseline.write_text(json.dumps(mutated))
        assert main(
            ["glr", "expr", "dangling_else", "--baseline", str(baseline)]
        ) == 1
        assert "drift" in capsys.readouterr().out


class TestCommittedBaseline:
    def test_repo_baseline_matches_current_engine(self):
        # BENCH_glr.json is the committed reference: the counters it pins
        # are pure functions of the corpus grammars and the engine, so a
        # mismatch means the GLR engine (or the workload) changed.
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "BENCH_glr.json"
        baseline = json.loads(path.read_text(encoding="utf-8"))
        current = {"format": FORMAT, "entries": glr_snapshot()}
        _, drift = compare(current, baseline)
        assert drift == []
