"""Versioned binary parse-table format — the table cache's one format.

The JSON export (:mod:`repro.tables.serialize`) pays a full text parse
on every load.  This module stores a table's code arrays as they are,
plus the full conflict log, resolved and unresolved alike:

- a fixed header (magic, format version, ID-layout version, dimensions,
  a CRC-32 of the payload) plus the grammar fingerprint and method name;
- two ``int32`` sections — ``ParseTable.action_codes`` (``n_states x
  num_terminals`` encoded actions, see :mod:`repro.tables.table`) and
  ``ParseTable.goto_codes`` (``n_states x num_nonterminals`` targets,
  ``-1`` = absent) — written little-endian;
- a trailing ``int32`` section with the conflict records.

Loading reads the file, verifies every header field and the payload CRC,
then copies the two sections into ``array('i')`` code arrays: a load
decodes no cell, and the loaded table owns its memory, so a file
truncated or replaced after the load cannot disturb it.

Every defect — bad magic, foreign format or ID-layout version, grammar
fingerprint mismatch, truncation, payload corruption (CRC), dimension
mismatch — raises :class:`~repro.tables.serialize.TableCacheError`, so
the cache layer evicts the entry and rebuilds, never crashes.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from typing import List

from ..grammar.grammar import Grammar
from ..grammar.symbols import ID_LAYOUT_VERSION
from .conflicts import Conflict
from .serialize import TableCacheError, atomic_write, grammar_fingerprint
from .table import ActionDecoder, ParseTable, encode_action

__all__ = [
    "BINARY_FORMAT_VERSION",
    "BINARY_SUFFIX",
    "load_binary_table",
    "save_binary_table",
    "table_from_bytes",
    "table_to_bytes",
]

#: Bump on any layout change; readers reject foreign versions outright.
#: Bumped to 2 when the payload grew the trailing resolved-conflicts
#: section: version-1 artifacts reload precedence-resolved tables with
#: ``conflict_summary()["resolved"] == 0`` — evict and rebuild.
#: Bumped to 3 when the trailing section started carrying *unresolved*
#: conflicts too (each record gained a resolved flag), making conflicted
#: tables — the GLR engine's input — cacheable; version-2 artifacts
#: cannot represent them, so both directions evict and rebuild.
BINARY_FORMAT_VERSION = 3

#: File extension of binary artifacts: the cache's entries, and the
#: ``repro table --output`` name that selects binary over a JSON export.
BINARY_SUFFIX = ".rtb"

_MAGIC = b"RPTB"
#: magic, format version, id-layout version, n_states, num_terminals,
#: num_nonterminals, n_productions, method length, payload CRC-32.
_HEADER = struct.Struct("<4sHHiiiiiI")
_FINGERPRINT_LEN = 64


def _section_to_le_bytes(section: array) -> bytes:
    """*section* (``array('i')``) as little-endian bytes."""
    if sys.byteorder == "big":  # pragma: no cover - exercised on BE hosts
        section = array("i", section)
        section.byteswap()
    return section.tobytes()


def table_to_bytes(table: ParseTable) -> bytes:
    """Serialise *table* into the binary artifact format."""
    ids = table.grammar.ids
    # Trailing variable-length section: the full conflict log, one
    # record each — [state, terminal_id, kind_tag, resolved_flag,
    # chosen, n, *actions] (kind_tag 0 = shift/reduce, 1 =
    # reduce/reduce; resolved_flag 1 = settled by precedence; chosen 0 =
    # the cell was erased, %nonassoc-style).  Unresolved records are
    # what let the GLR engine's nondet view rebuild its forked cells
    # from a cache hit.  Empty for conflict-free tables, so their
    # artifacts keep their exact bytes.
    conflict_section = array("i")
    for conflict in table.conflicts:
        conflict_section.append(conflict.state)
        conflict_section.append(ids.terminal_id(conflict.terminal))
        conflict_section.append(0 if conflict.kind == "shift/reduce" else 1)
        conflict_section.append(1 if conflict.resolved_by_precedence else 0)
        conflict_section.append(encode_action(conflict.chosen))
        conflict_section.append(len(conflict.actions))
        conflict_section.extend(
            encode_action(action) for action in conflict.actions
        )
    payload = (
        _section_to_le_bytes(table.action_codes)
        + _section_to_le_bytes(table.goto_codes)
        + _section_to_le_bytes(conflict_section)
    )
    method = table.method.encode("utf-8")
    fingerprint = grammar_fingerprint(table.grammar).encode("ascii")
    assert len(fingerprint) == _FINGERPRINT_LEN
    header = _HEADER.pack(
        _MAGIC,
        BINARY_FORMAT_VERSION,
        ID_LAYOUT_VERSION,
        table.n_states,
        ids.num_terminals,
        ids.num_nonterminals,
        len(table.grammar.productions),
        len(method),
        zlib.crc32(payload),
    )
    return header + fingerprint + method + payload


def _section_from_le_bytes(buffer: "memoryview") -> array:
    """*buffer* (little-endian int32 bytes) copied into an ``array('i')``."""
    section = array("i")
    section.frombytes(buffer)
    if sys.byteorder == "big":  # pragma: no cover - exercised on BE hosts
        section.byteswap()
    return section


def table_from_bytes(data: "bytes | memoryview", grammar: Grammar) -> ParseTable:
    """The table stored in *data*, verifying every header field against
    *grammar*.  Raises :class:`TableCacheError` on any structural
    defect."""
    view = memoryview(data)
    if len(view) < _HEADER.size + _FINGERPRINT_LEN:
        raise TableCacheError(
            f"truncated binary table: {len(view)} bytes is smaller than the header"
        )
    (
        magic,
        format_version,
        id_layout,
        n_states,
        num_terminals,
        num_nonterminals,
        n_productions,
        method_len,
        payload_crc,
    ) = _HEADER.unpack_from(view, 0)
    if magic != _MAGIC:
        raise TableCacheError(f"not a binary parse table (magic {magic!r})")
    if format_version != BINARY_FORMAT_VERSION:
        raise TableCacheError(
            f"unsupported binary table format {format_version!r}"
        )
    if id_layout != ID_LAYOUT_VERSION:
        raise TableCacheError(
            f"binary table uses ID layout {id_layout}, current is {ID_LAYOUT_VERSION}"
        )
    offset = _HEADER.size
    fingerprint = bytes(view[offset : offset + _FINGERPRINT_LEN]).decode(
        "ascii", "replace"
    )
    if fingerprint != grammar_fingerprint(grammar):
        raise TableCacheError(
            "grammar fingerprint mismatch: the binary table was built from "
            "a different grammar (rebuild instead of loading the cache)"
        )
    offset += _FINGERPRINT_LEN
    ids = grammar.ids
    if (
        n_states < 0
        or num_terminals != ids.num_terminals
        or num_nonterminals != ids.num_nonterminals
        or n_productions != len(grammar.productions)
    ):
        raise TableCacheError(
            f"binary table dimensions ({n_states} states, "
            f"{num_terminals}x{num_nonterminals} symbols, "
            f"{n_productions} productions) do not match the grammar"
        )
    if method_len < 0 or len(view) < offset + method_len:
        raise TableCacheError("truncated binary table: method name cut short")
    method = bytes(view[offset : offset + method_len]).decode("utf-8", "replace")
    offset += method_len
    action_bytes = 4 * n_states * num_terminals
    goto_bytes = 4 * n_states * num_nonterminals
    conflict_bytes = len(view) - offset - action_bytes - goto_bytes
    if conflict_bytes < 0 or conflict_bytes % 4:
        raise TableCacheError(
            f"truncated binary table: expected at least "
            f"{offset + action_bytes + goto_bytes} bytes, have {len(view)}"
        )
    payload = view[offset:]
    if zlib.crc32(payload) != payload_crc:
        raise TableCacheError("corrupt binary table: payload CRC mismatch")
    action_codes = _section_from_le_bytes(payload[:action_bytes])
    goto_codes = _section_from_le_bytes(
        payload[action_bytes : action_bytes + goto_bytes]
    )
    conflicts = _decode_conflict_section(
        _section_from_le_bytes(payload[action_bytes + goto_bytes :]), grammar
    )
    return ParseTable(grammar, method, action_codes, goto_codes, conflicts)


def _decode_conflict_section(flat, grammar: Grammar) -> "List[Conflict]":
    """The trailing conflict records back into Conflict objects."""
    terminals = grammar.ids.terminals
    decoder = ActionDecoder()
    conflicts: "List[Conflict]" = []
    index = 0
    try:
        while index < len(flat):
            state, terminal_id, kind_tag, resolved, chosen, count = flat[
                index : index + 6
            ]
            index += 6
            if count < 2 or resolved not in (0, 1) or index + count > len(flat):
                raise TableCacheError(
                    "corrupt binary table: malformed conflict record"
                )
            conflicts.append(
                Conflict(
                    state,
                    terminals[terminal_id],
                    "shift/reduce" if kind_tag == 0 else "reduce/reduce",
                    [decoder.decode(flat[index + i]) for i in range(count)],
                    decoder.decode(chosen),
                    resolved_by_precedence=bool(resolved),
                )
            )
            index += count
    except (ValueError, IndexError) as error:
        raise TableCacheError(
            f"corrupt binary table: bad conflict section ({error})"
        ) from error
    return conflicts


def save_binary_table(table: ParseTable, path: str) -> int:
    """Write *table* to *path* in the binary format, atomically
    (:func:`~repro.tables.serialize.atomic_write`).  Returns the artifact
    size in bytes."""
    blob = table_to_bytes(table)
    atomic_write(path, lambda handle: handle.write(blob), binary=True)
    return len(blob)


def load_binary_table(path: str, grammar: Grammar) -> ParseTable:
    """Load a table written by :func:`save_binary_table` for *grammar*.

    Raises :class:`TableCacheError` for a damaged or foreign file;
    ``FileNotFoundError`` propagates unchanged so callers can distinguish
    "missing" from "damaged".
    """
    with open(path, "rb") as handle:
        data = handle.read()
    return table_from_bytes(data, grammar)
