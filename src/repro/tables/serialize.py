"""Parse-table (de)serialisation — the generator's cache format.

Real parser generators persist their tables so application startup skips
the construction.  :func:`table_to_dict` / :func:`table_from_dict` give a
JSON-safe round-trip for any LR(0)-based table, guarded by a **grammar
fingerprint**: loading against a grammar whose rules changed raises
instead of silently mis-parsing.

The format carries the table's full conflict log — precedence-resolved
cells (part of ``conflict_summary()["resolved"]``) *and* unresolved
conflicts, which the GLR engine's :func:`~repro.tables.nondet
.nondet_view` re-expands into nondeterministic cells.  The section is
omitted entirely for conflict-free tables, so the common artifact keeps
its exact bytes.  The dense rows always store the single yacc-default
winner per cell; the conflict section is what preserves the losers.
"""

from __future__ import annotations

import json
import os
import tempfile
from array import array
from typing import Dict, List

from ..grammar.errors import SymbolError
from ..grammar.fingerprint import grammar_fingerprint
from ..grammar.grammar import Grammar
from .conflicts import Conflict
from .table import ACCEPT, ACTION_ERROR, Action, ParseTable, Reduce, Shift, encode_action

#: Bumped to 2 with the integer-interned symbol core: tables now carry
#: dense ID-indexed rows derived from the grammar's ID layout, so
#: format-1 entries (pre-ID era) must be evicted and rebuilt.
#: Bumped to 3 when the format grew the ``resolved`` conflict section:
#: format-2 entries would reload precedence-resolved tables with an
#: empty conflict log (``conflict_summary()["resolved"] == 0``), a
#: round-trip infidelity the serving layer's bit-identity contract
#: surfaced — evict and rebuild those too.
#: Bumped to 4 when the ``resolved`` section became the ``conflicts``
#: section carrying *unresolved* conflicts too (each record gains a
#: resolved flag), so conflicted tables — the GLR engine's input — are
#: cacheable at all.  Format-3 readers must not see format-4 artifacts
#: (they would reject the unknown section silently-absent) and format-3
#: artifacts under-report conflicted tables, so both directions evict.
FORMAT_VERSION = 4


class TableCacheError(ValueError):
    """A cached table is unusable: corrupt, truncated, from another
    format version, or built from a different grammar.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    callers keep working; cache layers catch this type specifically and
    fall back to rebuilding the table instead of crashing.
    """


# grammar_fingerprint now lives in repro.grammar.fingerprint (shared with
# the incremental pipeline and the fuzz corpus); re-exported here because
# this module has always been its public home for cache users.
__all__ = [
    "FORMAT_VERSION",
    "TableCacheError",
    "grammar_fingerprint",
    "table_to_dict",
    "table_from_dict",
    "save_table",
    "load_table",
]


def _encode_action(action: Action) -> "List":
    if action.kind == "shift":
        return ["s", action.state]
    if action.kind == "reduce":
        return ["r", action.production]
    return ["a"]


def _decode_action(encoded: "List") -> Action:
    kind = encoded[0] if encoded else None
    if kind == "s" and len(encoded) == 2 and isinstance(encoded[1], int):
        return Shift(encoded[1])
    if kind == "r" and len(encoded) == 2 and isinstance(encoded[1], int):
        return Reduce(encoded[1])
    if kind == "a" and len(encoded) == 1:
        return ACCEPT
    # Anything else — including a *list* of actions, the way a future
    # format might carry a conflicted cell — is rejected outright: a
    # loaded table must never claim conflict-freedom it does not have.
    raise TableCacheError(f"unknown action encoding {encoded!r}")


def _decode_conflict(encoded: "List", symbols) -> Conflict:
    """One ``conflicts`` record back into a Conflict (resolved or not)."""
    if not isinstance(encoded, list) or len(encoded) != 6:
        raise TableCacheError(f"malformed conflict record {encoded!r}")
    state, terminal_name, kind, actions, chosen, resolved = encoded
    if (
        kind not in ("shift/reduce", "reduce/reduce")
        or not isinstance(state, int)
        or not isinstance(resolved, bool)
    ):
        raise TableCacheError(f"malformed conflict record {encoded!r}")
    return Conflict(
        state,
        symbols[terminal_name],
        kind,
        [_decode_action(action) for action in actions],
        None if chosen is None else _decode_action(chosen),
        resolved_by_precedence=resolved,
    )


def table_to_dict(table: ParseTable) -> Dict:
    """A JSON-safe dict capturing *table*, conflicts and all."""
    payload = {
        "format": FORMAT_VERSION,
        "method": table.method,
        "fingerprint": grammar_fingerprint(table.grammar),
        "actions": [
            {terminal.name: _encode_action(action) for terminal, action in row.items()}
            for row in table.actions
        ],
        "gotos": [
            {nonterminal.name: target for nonterminal, target in row.items()}
            for row in table.gotos
        ],
    }
    if table.conflicts:
        # The full conflict log, in discovery order, so the loaded table
        # reports the same conflict_summary() — and re-expands the same
        # nondeterministic cells for the GLR engine — as the freshly
        # built one.  Omitted when empty: the common conflict-free
        # artifact keeps its exact bytes.
        payload["conflicts"] = [
            [
                conflict.state,
                conflict.terminal.name,
                conflict.kind,
                [_encode_action(action) for action in conflict.actions],
                None if conflict.chosen is None else _encode_action(conflict.chosen),
                conflict.resolved_by_precedence,
            ]
            for conflict in table.conflicts
        ]
    return payload


def table_from_dict(data: Dict, grammar: Grammar) -> ParseTable:
    """Rebuild a ParseTable against *grammar*, verifying the fingerprint.

    Raises :class:`TableCacheError` on any structural defect (wrong
    format version, fingerprint mismatch, truncated or malformed rows) so
    callers can treat every failure mode uniformly as "rebuild".
    """
    if not isinstance(data, dict):
        raise TableCacheError(f"table payload is {type(data).__name__}, not an object")
    if data.get("format") != FORMAT_VERSION:
        raise TableCacheError(f"unsupported table format {data.get('format')!r}")
    fingerprint = grammar_fingerprint(grammar)
    if data.get("fingerprint") != fingerprint:
        raise TableCacheError(
            "grammar fingerprint mismatch: the table was built from a "
            "different grammar (rebuild instead of loading the cache)"
        )
    symbols = grammar.symbols
    try:
        actions = [
            {symbols[name]: _decode_action(encoded) for name, encoded in row.items()}
            for row in data["actions"]
        ]
        gotos = [
            {symbols[name]: target for name, target in row.items()}
            for row in data["gotos"]
        ]
        method = data["method"]
        conflicts = [
            _decode_conflict(encoded, symbols)
            for encoded in data.get("conflicts", [])
        ]
    except TableCacheError:
        raise
    except (KeyError, TypeError, AttributeError, IndexError, SymbolError) as error:
        raise TableCacheError(f"truncated or malformed table payload: {error}") from error
    _validate_rows(actions, gotos, grammar)
    # The dense rows stay single-winner (_validate_rows just proved at
    # most one action per terminal); unresolved entries in the carried
    # conflict log are what make the loaded table report
    # is_deterministic=False and fuel the GLR engine's nondet view.
    ids = grammar.ids
    width, n_nts = ids.num_terminals, ids.num_nonterminals
    action_codes = array("i", [ACTION_ERROR]) * (len(actions) * width)
    goto_codes = array("i", [-1]) * (len(gotos) * n_nts)
    for state, (action_row, goto_row) in enumerate(zip(actions, gotos)):
        for terminal, action in action_row.items():
            action_codes[state * width + ids.terminal_id(terminal)] = encode_action(action)
        for nonterminal, target in goto_row.items():
            goto_codes[state * n_nts + ids.nonterminal_id(nonterminal)] = target
    return ParseTable(grammar, method, action_codes, goto_codes, conflicts)


def _validate_rows(
    actions: "List[Dict]", gotos: "List[Dict]", grammar: Grammar
) -> None:
    """Reject structurally invalid rows a syntactically well-formed
    payload can still carry: symbols of the wrong kind in a row,
    out-of-range targets, duplicate actions folded onto one terminal.

    Each check raises :class:`TableCacheError` so every failure mode
    stays uniformly "evict and rebuild" for the cache layers.
    """
    if len(actions) != len(gotos):
        raise TableCacheError(
            f"malformed table payload: {len(actions)} ACTION rows but "
            f"{len(gotos)} GOTO rows"
        )
    n_states = len(actions)
    n_productions = len(grammar.productions)
    for state, row in enumerate(actions):
        for symbol, action in row.items():
            if symbol.is_nonterminal:
                raise TableCacheError(
                    f"malformed table payload: nonterminal {symbol.name!r} "
                    f"in ACTION row {state}"
                )
            if action.kind == "shift" and not 0 <= action.state < n_states:
                raise TableCacheError(
                    f"malformed table payload: shift target {action.state} "
                    f"out of range in ACTION row {state}"
                )
            if action.kind == "reduce" and not 0 <= action.production < n_productions:
                raise TableCacheError(
                    f"malformed table payload: reduce production "
                    f"{action.production} out of range in ACTION row {state}"
                )
    for state, row in enumerate(gotos):
        for symbol, target in row.items():
            if symbol.is_terminal:
                raise TableCacheError(
                    f"malformed table payload: terminal {symbol.name!r} "
                    f"in GOTO row {state}"
                )
            if not isinstance(target, int) or isinstance(target, bool) or not (
                0 <= target < n_states
            ):
                raise TableCacheError(
                    f"malformed table payload: GOTO target {target!r} "
                    f"out of range in row {state}"
                )


def save_table(table: ParseTable, path: str) -> None:
    """Serialise *table* as JSON to *path*, atomically.

    The payload is written to a temporary file in the destination
    directory and moved into place with :func:`os.replace`, so a crash
    mid-write leaves either the old file or no file — never a truncated
    one readers would choke on.
    """
    payload = table_to_dict(table)
    directory = os.path.dirname(os.path.abspath(path))
    descriptor, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def load_table(path: str, grammar: Grammar) -> ParseTable:
    """Load a table cached by :func:`save_table` for *grammar*.

    Raises :class:`TableCacheError` (not a raw ``JSONDecodeError``) when
    the file is corrupt or truncated; ``FileNotFoundError`` propagates
    unchanged so callers can distinguish "missing" from "damaged".
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as error:
            raise TableCacheError(f"corrupt table file {path!r}: {error}") from error
    return table_from_dict(data, grammar)
