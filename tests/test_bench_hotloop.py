"""Unit tests: the hot-loop and scale-out bench harnesses.

Snapshots are expensive (the scale-out one boots two real services), so
each is taken once per module and the drift comparators are exercised on
hand-mutated copies — the same split the other bench suites use.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.hotloop import (
    compare_hotloop_baseline,
    hotloop_snapshot,
    main as hotloop_main,
)
from repro.bench.scaleout import (
    compare_scaleout_baseline,
    scaleout_snapshot,
    main as scaleout_main,
)
from repro.core.parallel import fork_available


@pytest.fixture(scope="module")
def hotloop_snap():
    return hotloop_snapshot(["expr", "json"], repeats=1)


@pytest.fixture(scope="module")
def scaleout_snap():
    if not fork_available():
        pytest.skip("scale-out tier needs fork")
    return scaleout_snapshot(["expr"], workers=2, requests=4, clients=2)


class TestHotloopSnapshot:
    def test_shape_and_counters(self, hotloop_snap):
        assert set(hotloop_snap["grammars"]) == {"expr", "json"}
        entry = hotloop_snap["grammars"]["expr"]
        counters = entry["counters"]
        assert counters["states"] == 13
        assert counters["action_cells"] % counters["states"] == 0
        assert 0 < counters["populated_cells"] <= counters["action_cells"]
        assert counters["workload_tokens"] > 0
        assert counters["workload_shifts"] > 0
        assert counters["workload_reduces"] > 0
        assert entry["throughput"]["tokens_per_sec"] > 0

    def test_counters_are_deterministic(self, hotloop_snap):
        again = hotloop_snapshot(["expr", "json"], repeats=1)
        for name in ("expr", "json"):
            assert (
                again["grammars"][name]["counters"]
                == hotloop_snap["grammars"][name]["counters"]
            )

    def test_compare_identical_has_no_drift(self, hotloop_snap):
        rows, drift = compare_hotloop_baseline(hotloop_snap, hotloop_snap)
        assert drift == []
        assert rows  # throughput rows are informational, never drift

    def test_compare_flags_counter_drift(self, hotloop_snap):
        mutated = copy.deepcopy(hotloop_snap)
        mutated["grammars"]["expr"]["counters"]["default_states"] += 1
        _, drift = compare_hotloop_baseline(mutated, hotloop_snap)
        assert any("default_states" in message for message in drift)

    def test_compare_flags_missing_grammar(self, hotloop_snap):
        mutated = copy.deepcopy(hotloop_snap)
        del mutated["grammars"]["json"]
        _, drift = compare_hotloop_baseline(mutated, hotloop_snap)
        assert any("json" in message for message in drift)

    def test_write_then_compare_round_trip(self, tmp_path, capsys):
        baseline = tmp_path / "hotloop.json"
        assert hotloop_main(
            ["expr", "--repeats", "1", "--write-baseline", str(baseline)]
        ) == 0
        assert hotloop_main(
            ["expr", "--repeats", "1", "--baseline", str(baseline)]
        ) == 0
        assert "match the baseline" in capsys.readouterr().out

    def test_compare_exits_nonzero_on_drift(self, tmp_path, capsys, hotloop_snap):
        mutated = copy.deepcopy(hotloop_snap)
        mutated["grammars"]["expr"]["counters"]["states"] = 999
        baseline = tmp_path / "drifted.json"
        baseline.write_text(json.dumps(mutated))
        assert hotloop_main(
            ["expr", "json", "--repeats", "1", "--baseline", str(baseline)]
        ) == 1
        assert "drift" in capsys.readouterr().out


class TestScaleoutSnapshot:
    def test_tiers_and_accounting(self, scaleout_snap):
        tiers = scaleout_snap["tiers"]
        assert set(tiers) == {"single", "pool2"}
        single = tiers["single"]["counters"]
        pooled = tiers["pool2"]["counters"]
        assert single["requests"] == pooled["requests"] == 4
        # The pooled tier served the same canonical bytes.
        assert pooled["bytes_identical"] == 1
        assert pooled["parse_bytes_expr"] == single["parse_bytes_expr"]
        # Deterministic round-robin: every worker counted, spread <= 1.
        assert pooled["pool_every_worker_served"] == 1
        assert pooled["pool_spread"] <= 1
        assert pooled["pool_accounted"] == 1

    def test_compare_identical_has_no_drift(self, scaleout_snap):
        rows, drift = compare_scaleout_baseline(scaleout_snap, scaleout_snap)
        assert drift == []
        assert rows

    def test_compare_flags_byte_divergence(self, scaleout_snap):
        mutated = copy.deepcopy(scaleout_snap)
        mutated["tiers"]["pool2"]["counters"]["bytes_identical"] = 0
        _, drift = compare_scaleout_baseline(mutated, scaleout_snap)
        assert any("bytes_identical" in message for message in drift)

    def test_compare_flags_missing_tier(self, scaleout_snap):
        mutated = copy.deepcopy(scaleout_snap)
        del mutated["tiers"]["pool2"]
        _, drift = compare_scaleout_baseline(mutated, scaleout_snap)
        assert any("pool2" in message for message in drift)
