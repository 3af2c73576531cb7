"""Unit tests: the bench runner's scenario registry and drift check.

Every scenario takes one small snapshot (``expr`` only), shared by the
module; each drift case mutates a copy of it, so one comparator is held
to the same rules on all seven scenarios' real entry shapes.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.runner import FORMAT, SCENARIOS, compare, main
from repro.cli import main as cli_main
from repro.core.parallel import fork_available

_SNAPSHOTS = {}


def small_snapshot(scenario: str) -> dict:
    if scenario == "scaleout" and not fork_available():
        pytest.skip("the scale-out pool tier needs fork")
    if scenario not in _SNAPSHOTS:
        _SNAPSHOTS[scenario] = {
            "format": FORMAT,
            "entries": SCENARIOS[scenario](["expr"]),
        }
    return copy.deepcopy(_SNAPSHOTS[scenario])


def _measured(snapshot: dict) -> "tuple[str, dict]":
    """(name, entry) of the first entry that carries counters."""
    return next(
        (name, entry)
        for name, entry in snapshot["entries"].items()
        if "counters" in entry
    )


def _add_counter(current, baseline):
    _measured(current)[1]["counters"]["extra_counter"] = 1


def _remove_counter(current, baseline):
    counters = _measured(current)[1]["counters"]
    del counters[sorted(counters)[0]]


def _bump_counter(current, baseline):
    counters = _measured(current)[1]["counters"]
    key = next(k for k, v in sorted(counters.items()) if isinstance(v, int))
    counters[key] += 1


def _unmeasured_baseline_entry(current, baseline):
    baseline["entries"]["ghost"] = copy.deepcopy(_measured(baseline)[1])


def _entry_missing_from_baseline(current, baseline):
    del baseline["entries"][_measured(baseline)[0]]


def _changed_skip_reason(current, baseline):
    name = _measured(current)[0]
    current["entries"][name] = {"skipped": "reason A"}
    baseline["entries"][name] = {"skipped": "reason B"}


def _format_mismatch(current, baseline):
    baseline["format"] = FORMAT - 1


DRIFT_CASES = {
    "counter-added": _add_counter,
    "counter-removed": _remove_counter,
    "counter-bumped": _bump_counter,
    "baseline-entry-not-measured": _unmeasured_baseline_entry,
    "measured-entry-not-in-baseline": _entry_missing_from_baseline,
    "skip-reason-changed": _changed_skip_reason,
    "format-mismatch": _format_mismatch,
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
class TestDriftCheck:
    @pytest.mark.parametrize("case", sorted(DRIFT_CASES))
    def test_mutation_is_drift(self, scenario, case):
        current = small_snapshot(scenario)
        baseline = small_snapshot(scenario)
        DRIFT_CASES[case](current, baseline)
        _, drift = compare(current, baseline)
        assert len(drift) == 1, drift

    def test_informational_changes_are_not_drift(self, scenario):
        current = small_snapshot(scenario)
        baseline = small_snapshot(scenario)
        rows, drift = compare(current, baseline)
        assert drift == []
        assert rows and all(row[2] == row[3] for row in rows)

        def scale(value):
            if isinstance(value, dict):
                return {k: v if k == "counters" else scale(v)
                        for k, v in value.items()}
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return value * 10 + 1
            return value

        baseline["entries"] = scale(baseline["entries"])
        rows, drift = compare(current, baseline)
        assert drift == []
        assert all(row[2] != row[3] for row in rows)


class TestFingerprintGuard:
    def test_renamed_grammar_is_drift(self):
        # A different corpus grammar recorded under a baseline entry's
        # name: the fingerprint counter names the swap.
        baseline = small_snapshot("core")
        current = {"format": FORMAT,
                   "entries": SCENARIOS["core"](["json"])}
        current["entries"]["expr"] = current["entries"].pop("json")
        _, drift = compare(current, baseline)
        assert any("counter fingerprint" in message for message in drift)

    def test_committed_core_baseline_carries_fingerprints(self):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "BENCH_lr0_kernel.json"
        baseline = json.loads(path.read_text(encoding="utf-8"))
        assert baseline["format"] == FORMAT
        for entry in baseline["entries"].values():
            assert len(entry["counters"]["fingerprint"]) == 64


class TestMain:
    def test_write_then_compare_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "core.json")
        assert main(["core", "expr", "--write-baseline", path]) == 0
        written = json.loads((tmp_path / "core.json").read_text())
        assert written["format"] == FORMAT
        assert list(written["entries"]) == ["expr"]
        assert main(["core", "expr", "--baseline", path]) == 0
        assert "core: counters match the baseline" in capsys.readouterr().out

    def test_drift_exits_1_through_the_cli(self, tmp_path, capsys):
        path = tmp_path / "core.json"
        assert cli_main(["bench", "core", "expr",
                         "--write-baseline", str(path)]) == 0
        baseline = json.loads(path.read_text())
        baseline["entries"]["expr"]["counters"]["unions"] += 1
        path.write_text(json.dumps(baseline))
        assert cli_main(["bench", "core", "expr",
                         "--baseline", str(path)]) == 1
        out = capsys.readouterr().out
        assert "expr: counter unions" in out

    def test_no_flag_prints_the_snapshot(self, capsys):
        assert main(["glr", "expr"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["format"] == FORMAT
        entry = printed["entries"]["expr"]
        assert entry["counters"]["gss_nodes"] > 0
        assert entry["throughput"]["glr_tokens_per_sec"] > 0

    def test_flags_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["core", "--baseline", "a", "--write-baseline", "b"])
        assert info.value.code == 2

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["nope"])
        assert info.value.code == 2
