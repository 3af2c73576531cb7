"""Parse-table JSON export — the readable artifact next to ``.rtb``.

The table cache stores the binary artifact of :mod:`repro.tables.binfmt`;
this module is the readable export (``repro table --output x.json``).
:func:`table_to_dict` / :func:`table_from_dict` give a JSON-safe
round-trip for any LR(0)-based table, guarded by a **grammar
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
from typing import IO, Callable, Dict, List

from ..grammar.errors import SymbolError
from ..grammar.fingerprint import grammar_fingerprint
from ..grammar.grammar import Grammar
from .conflicts import Conflict
from .table import (
    ACTION_ACCEPT,
    ACTION_ERROR,
    ACTION_REDUCE,
    ACTION_SHIFT,
    Action,
    ActionDecoder,
    ParseTable,
)

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
    "atomic_write",
    "save_table",
    "load_table",
]


def _encode_action(action: Action) -> "List":
    if action.kind == "shift":
        return ["s", action.state]
    if action.kind == "reduce":
        return ["r", action.production]
    return ["a"]


def _action_code(encoded: "List") -> int:
    """The integer code (see :mod:`repro.tables.table`) of one encoded
    action."""
    kind = encoded[0] if encoded else None
    if kind == "s" and len(encoded) == 2 and isinstance(encoded[1], int):
        return (encoded[1] << 2) | ACTION_SHIFT
    if kind == "r" and len(encoded) == 2 and isinstance(encoded[1], int):
        return (encoded[1] << 2) | ACTION_REDUCE
    if kind == "a" and len(encoded) == 1:
        return ACTION_ACCEPT
    # Anything else — including a *list* of actions, the way a future
    # format might carry a conflicted cell — is rejected outright: a
    # loaded table must never claim conflict-freedom it does not have.
    raise TableCacheError(f"unknown action encoding {encoded!r}")


def _decode_conflict(encoded: "List", symbols, decoder: ActionDecoder) -> Conflict:
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
        [decoder.decode(_action_code(action)) for action in actions],
        None if chosen is None else decoder.decode(_action_code(chosen)),
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

    Each row is checked and written straight into the table's code
    arrays; only the conflict log is decoded into :class:`Action`
    objects.  Raises :class:`TableCacheError` on any structural defect
    (wrong format version, fingerprint mismatch, truncated or malformed
    rows, a symbol of the wrong kind, an out-of-range target) so callers
    can treat every failure mode uniformly as "rebuild".
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
        action_rows = list(data["actions"])
        goto_rows = list(data["gotos"])
        method = data["method"]
        if len(action_rows) != len(goto_rows):
            raise TableCacheError(
                f"malformed table payload: {len(action_rows)} ACTION rows but "
                f"{len(goto_rows)} GOTO rows"
            )
        action_codes = _action_codes(action_rows, grammar)
        goto_codes = _goto_codes(goto_rows, grammar)
        decoder = ActionDecoder()
        conflicts = [
            _decode_conflict(encoded, symbols, decoder)
            for encoded in data.get("conflicts", [])
        ]
    except TableCacheError:
        raise
    except (KeyError, TypeError, AttributeError, IndexError, SymbolError) as error:
        raise TableCacheError(f"truncated or malformed table payload: {error}") from error
    # The dense rows stay single-winner (a JSON object holds at most one
    # action per terminal); unresolved entries in the carried conflict
    # log are what make the loaded table report is_deterministic=False
    # and fuel the GLR engine's nondet view.
    return ParseTable(grammar, method, action_codes, goto_codes, conflicts)


def _misplaced(grammar: Grammar, name: str, row: str, state: int) -> TableCacheError:
    """The error for *name* in an ``"ACTION"``/``"GOTO"`` *row* that has
    no column for it (SymbolError for a name the grammar never had)."""
    symbol = grammar.symbols[name]
    if symbol.is_terminal == (row == "ACTION"):  # right kind, other layout
        return TableCacheError(
            f"malformed table payload: {name!r} is not in the grammar's symbol layout"
        )
    kind = "terminal" if symbol.is_terminal else "nonterminal"
    return TableCacheError(
        f"malformed table payload: {kind} {name!r} in {row} row {state}"
    )


def _action_codes(rows: "List[Dict]", grammar: Grammar) -> array:
    """The ACTION rows as ``action_codes``, each cell checked."""
    terminals = grammar.ids.terminals
    width = len(terminals)
    terminal_id = {terminal.name: tid for tid, terminal in enumerate(terminals)}
    n_states = len(rows)
    n_productions = len(grammar.productions)
    codes = array("i", [ACTION_ERROR]) * (n_states * width)
    for state, row in enumerate(rows):
        base = state * width
        for name, encoded in row.items():
            tid = terminal_id.get(name)
            if tid is None:
                raise _misplaced(grammar, name, "ACTION", state)
            code = _action_code(encoded)
            tag = code & 3
            if tag == ACTION_SHIFT and not 0 <= encoded[1] < n_states:
                raise TableCacheError(
                    f"malformed table payload: shift target {encoded[1]} "
                    f"out of range in ACTION row {state}"
                )
            if tag == ACTION_REDUCE and not 0 <= encoded[1] < n_productions:
                raise TableCacheError(
                    f"malformed table payload: reduce production "
                    f"{encoded[1]} out of range in ACTION row {state}"
                )
            codes[base + tid] = code
    return codes


def _goto_codes(rows: "List[Dict]", grammar: Grammar) -> array:
    """The GOTO rows as ``goto_codes``, each target checked."""
    nonterminals = grammar.ids.nonterminals
    width = len(nonterminals)
    nonterminal_id = {symbol.name: nid for nid, symbol in enumerate(nonterminals)}
    n_states = len(rows)
    codes = array("i", [-1]) * (n_states * width)
    for state, row in enumerate(rows):
        base = state * width
        for name, target in row.items():
            nid = nonterminal_id.get(name)
            if nid is None:
                raise _misplaced(grammar, name, "GOTO", state)
            if not isinstance(target, int) or isinstance(target, bool) or not (
                0 <= target < n_states
            ):
                raise TableCacheError(
                    f"malformed table payload: GOTO target {target!r} "
                    f"out of range in row {state}"
                )
            codes[base + nid] = target
    return codes


def atomic_write(path: str, write: "Callable[[IO], None]", binary: bool = False) -> None:
    """Write *path* through ``write(handle)``, atomically.

    The content goes to a temporary file in the destination directory
    and is moved into place with :func:`os.replace`, so a crash mid-write
    leaves either the old file or no file — never a truncated one
    readers would choke on.  *binary* opens the handle in bytes mode,
    else it is UTF-8 text.
    """
    directory = os.path.dirname(os.path.abspath(path))
    descriptor, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        if binary:
            handle = os.fdopen(descriptor, "wb")
        else:
            handle = os.fdopen(descriptor, "w", encoding="utf-8")
        with handle:
            write(handle)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def save_table(table: ParseTable, path: str) -> None:
    """Export *table* as JSON to *path*, atomically (:func:`atomic_write`)."""
    payload = table_to_dict(table)
    atomic_write(path, lambda handle: json.dump(payload, handle))


def load_table(path: str, grammar: Grammar) -> ParseTable:
    """Load a table exported by :func:`save_table` for *grammar*.

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
