"""Unit tests: the hot-loop and scale-out bench harnesses.

Snapshots are expensive (the scale-out one boots two real services), so
each is taken once per module and the drift comparators are exercised on
hand-mutated copies — the same split the other bench suites use.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.hotloop import hotloop_snapshot
from repro.bench.runner import FORMAT, compare, main
from repro.bench.scaleout import scaleout_snapshot
from repro.core.parallel import fork_available


@pytest.fixture(scope="module")
def hotloop_snap():
    return {"format": FORMAT, "entries": hotloop_snapshot(["expr", "json"])}


@pytest.fixture(scope="module")
def scaleout_snap():
    if not fork_available():
        pytest.skip("scale-out tier needs fork")
    return {"format": FORMAT, "entries": scaleout_snapshot(["expr"])}


class TestHotloopSnapshot:
    def test_shape_and_counters(self, hotloop_snap):
        assert set(hotloop_snap["entries"]) == {"expr", "json"}
        entry = hotloop_snap["entries"]["expr"]
        counters = entry["counters"]
        assert counters["states"] == 13
        assert counters["action_cells"] % counters["states"] == 0
        assert 0 < counters["populated_cells"] <= counters["action_cells"]
        assert counters["workload_tokens"] > 0
        assert counters["workload_shifts"] > 0
        assert counters["workload_reduces"] > 0
        assert entry["throughput"]["tokens_per_sec"] > 0

    def test_counters_are_deterministic(self, hotloop_snap):
        again = hotloop_snapshot(["expr", "json"])
        for name in ("expr", "json"):
            assert (
                again[name]["counters"]
                == hotloop_snap["entries"][name]["counters"]
            )

    def test_compare_identical_has_no_drift(self, hotloop_snap):
        rows, drift = compare(hotloop_snap, hotloop_snap)
        assert drift == []
        assert rows  # throughput rows are informational, never drift

    def test_compare_flags_counter_drift(self, hotloop_snap):
        mutated = copy.deepcopy(hotloop_snap)
        mutated["entries"]["expr"]["counters"]["default_states"] += 1
        _, drift = compare(mutated, hotloop_snap)
        assert any("default_states" in message for message in drift)

    def test_compare_flags_missing_grammar(self, hotloop_snap):
        mutated = copy.deepcopy(hotloop_snap)
        del mutated["entries"]["json"]
        _, drift = compare(mutated, hotloop_snap)
        assert any("json" in message for message in drift)

    def test_write_then_compare_round_trip(self, tmp_path, capsys):
        baseline = tmp_path / "hotloop.json"
        assert main(["hotloop", "expr", "--write-baseline", str(baseline)]) == 0
        assert main(["hotloop", "expr", "--baseline", str(baseline)]) == 0
        assert "match the baseline" in capsys.readouterr().out

    def test_compare_exits_nonzero_on_drift(self, tmp_path, capsys, hotloop_snap):
        mutated = copy.deepcopy(hotloop_snap)
        mutated["entries"]["expr"]["counters"]["states"] = 999
        baseline = tmp_path / "drifted.json"
        baseline.write_text(json.dumps(mutated))
        assert main(["hotloop", "expr", "json", "--baseline", str(baseline)]) == 1
        assert "drift" in capsys.readouterr().out


class TestScaleoutSnapshot:
    def test_tiers_and_accounting(self, scaleout_snap):
        tiers = scaleout_snap["entries"]
        assert set(tiers) == {"single", "pool4"}
        single = tiers["single"]["counters"]
        pooled = tiers["pool4"]["counters"]
        assert single["requests"] == pooled["requests"] == 24
        # The pooled tier served the same canonical bytes.
        assert pooled["bytes_identical"] == 1
        assert pooled["parse_bytes_expr"] == single["parse_bytes_expr"]
        # Deterministic round-robin: every worker counted, spread <= 1.
        assert pooled["pool_every_worker_served"] == 1
        assert pooled["pool_spread"] <= 1
        assert pooled["pool_accounted"] == 1

    def test_compare_identical_has_no_drift(self, scaleout_snap):
        rows, drift = compare(scaleout_snap, scaleout_snap)
        assert drift == []
        assert rows

    def test_compare_flags_byte_divergence(self, scaleout_snap):
        mutated = copy.deepcopy(scaleout_snap)
        mutated["entries"]["pool4"]["counters"]["bytes_identical"] = 0
        _, drift = compare(mutated, scaleout_snap)
        assert any("bytes_identical" in message for message in drift)

    def test_compare_flags_missing_tier(self, scaleout_snap):
        mutated = copy.deepcopy(scaleout_snap)
        del mutated["entries"]["pool4"]
        _, drift = compare(mutated, scaleout_snap)
        assert any("pool4" in message for message in drift)
