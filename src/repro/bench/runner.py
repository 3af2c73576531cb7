"""One bench runner: the scenario registry and the one drift check.

Every bench scenario is a function ``snapshot(names) -> entries`` that
maps each measured entry (a grammar, or a serving tier for
``scaleout``) to either ``{"skipped": reason}`` or a dict holding exact
``counters`` plus any informational numbers (timings, rates).  Its
default ``names`` are the entries of its committed baseline.  A
snapshot file is ``{"format": FORMAT, "entries": {...}}``::

    repro bench <scenario> [names...] [--baseline F | --write-baseline F]

``--baseline`` exits 1 on drift (see :func:`compare`); without a flag
the runner prints the snapshot as JSON.  Each scenario's module docstring says
what drift in its counters means.
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, Iterator, List, Sequence, Tuple

from .artifacts import artifacts_snapshot
from .glr import glr_snapshot
from .harness import bench_snapshot as core_snapshot
from .hotloop import hotloop_snapshot
from .incremental import bench_snapshot as incremental_snapshot
from .report import format_table
from .scaleout import scaleout_snapshot
from .service import service_snapshot

#: Format tag of every ``BENCH_*.json`` snapshot the runner reads or writes.
FORMAT = 2

#: Scenario name -> snapshot function.
SCENARIOS = {
    "core": core_snapshot,
    "artifacts": artifacts_snapshot,
    "incremental": incremental_snapshot,
    "service": service_snapshot,
    "hotloop": hotloop_snapshot,
    "scaleout": scaleout_snapshot,
    "glr": glr_snapshot,
}


def _leaves(value: object, path: str = "") -> "Iterator[Tuple[str, object]]":
    """(dotted path, number) for every numeric leaf under *value*."""
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _leaves(child, f"{path}.{key}" if path else key)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, value


def _informational(entry: Dict) -> "Dict[str, object]":
    return dict(_leaves({k: v for k, v in entry.items() if k != "counters"}))


def compare(current: Dict, baseline: Dict) -> "Tuple[List[List], List[str]]":
    """Diff a snapshot against a baseline: ``(rows, drift)``.

    Drift is any difference in the format tag, in the entry sets (both
    directions), in a ``skipped`` reason, or in an entry's ``counters``
    dict (added, removed or changed keys).  Every other numeric leaf is
    an informational ``[entry, metric, baseline, now]`` row; it varies
    with the machine and never drifts.
    """
    rows: "List[List]" = []
    drift: "List[str]" = []
    if current.get("format") != baseline.get("format"):
        drift.append(
            f"format {baseline.get('format')!r} in the baseline, "
            f"{current.get('format')!r} now"
        )
    entries = current.get("entries", {})
    base_entries = baseline.get("entries", {})
    for name in base_entries:
        if name not in entries:
            drift.append(f"{name}: in the baseline but not measured")
    for name, entry in entries.items():
        base = base_entries.get(name)
        if base is None:
            drift.append(f"{name}: measured but not in the baseline")
            continue
        if "skipped" in entry or "skipped" in base:
            if entry.get("skipped") != base.get("skipped"):
                drift.append(
                    f"{name}: skipped {base.get('skipped')!r} -> "
                    f"{entry.get('skipped')!r}"
                )
            continue
        counters = entry.get("counters", {})
        base_counters = base.get("counters", {})
        for key in sorted(counters.keys() | base_counters.keys()):
            if key not in base_counters:
                drift.append(f"{name}: counter {key} added ({counters[key]!r})")
            elif key not in counters:
                drift.append(
                    f"{name}: counter {key} removed (was {base_counters[key]!r})"
                )
            elif counters[key] != base_counters[key]:
                drift.append(
                    f"{name}: counter {key} {base_counters[key]!r} -> "
                    f"{counters[key]!r}"
                )
        base_info = _informational(base)
        for metric, value in _informational(entry).items():
            rows.append([name, metric, base_info.get(metric), value])
    return rows, drift


def main(argv: "Sequence[str] | None" = None) -> int:
    """``repro bench`` — snapshot one scenario, write it or diff it."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="run a bench scenario; --baseline exits 1 on counter "
                    "drift, informational numbers are printed only",
    )
    parser.add_argument("scenario", choices=sorted(SCENARIOS))
    parser.add_argument("names", nargs="*",
                        help="corpus grammar names to measure (core, "
                             "artifacts and incremental also take grammar "
                             "files; default: the committed baseline's)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--baseline", default="", metavar="FILE",
                      help="compare against a snapshot (exit 1 on drift)")
    mode.add_argument("--write-baseline", default="", metavar="FILE",
                      help="write the snapshot to FILE")
    args = parser.parse_args(argv)

    snapshot_fn = SCENARIOS[args.scenario]
    entries = snapshot_fn(args.names) if args.names else snapshot_fn()
    snapshot = {"format": FORMAT, "entries": entries}
    text = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"

    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.write_baseline} ({len(entries)} entries)")
        return 0
    if not args.baseline:
        print(text, end="")
        return 0

    with open(args.baseline, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    rows, drift = compare(snapshot, baseline)
    print(format_table(["entry", "metric", "baseline", "now"], rows))
    if drift:
        print(f"{args.scenario}: drift against {args.baseline}:")
        for message in drift:
            print(f"  {message}")
        return 1
    print(f"{args.scenario}: counters match the baseline")
    return 0
