"""One table, one byte image.

Every construction writes the ``action_codes``/``goto_codes`` arrays
directly and the Symbol-keyed view is always decoded from them, so a
fresh table, its binary round-trip and its JSON round-trip hold the same
code arrays and conflict log, serialise to the same bytes and compress
to the same row defaults.  The CLR conflict log is filled in terminal-id
order, so its bytes do not depend on where the interpreter happened to
allocate the terminal ``Symbol`` objects.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.grammars import corpus
from repro.tables.binfmt import table_from_bytes, table_to_bytes
from repro.tables.build import BUILDERS
from repro.tables.compress import compress
from repro.tables.serialize import table_from_dict, table_to_dict


@pytest.mark.parametrize("method", sorted(BUILDERS))
@pytest.mark.parametrize("name", corpus.names())
def test_fresh_and_loaded_tables_share_one_image(name, method):
    grammar = corpus.load(name, augment=True)
    fresh = BUILDERS[method](grammar)
    from_binary = table_from_bytes(table_to_bytes(fresh), grammar)
    from_json = table_from_dict(json.loads(json.dumps(table_to_dict(fresh))), grammar)
    images = {
        json.dumps(table_to_dict(table)) for table in (fresh, from_binary, from_json)
    }
    assert len(images) == 1
    defaults = [compress(table).defaults for table in (fresh, from_binary, from_json)]
    assert defaults[0] == defaults[1] == defaults[2]
    # Both loaders write the same code arrays and conflict log.
    for loaded in (from_binary, from_json):
        assert loaded.action_codes == fresh.action_codes
        assert loaded.goto_codes == fresh.goto_codes
        assert [_conflict_key(c) for c in loaded.conflicts] == [
            _conflict_key(c) for c in fresh.conflicts
        ]


def _conflict_key(conflict):
    return (
        conflict.state,
        conflict.terminal,
        conflict.kind,
        conflict.actions,
        conflict.chosen,
        conflict.resolved_by_precedence,
    )


_CLR_DIGEST = textwrap.dedent(
    """
    import hashlib, sys
    # Shift the heap so identity-hashed Symbols land at other addresses.
    ballast = [object() for _ in range(int(sys.argv[1]))]
    from repro.grammars import corpus
    from repro.tables.binfmt import table_to_bytes
    from repro.tables.build import build_clr_table
    for name in ("expr_prec", "reads_cycle"):
        table = build_clr_table(corpus.load(name, augment=True))
        print(name, len(table.conflicts), hashlib.sha256(table_to_bytes(table)).hexdigest())
    """
)


def _clr_digests(ballast: int) -> str:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _CLR_DIGEST, str(ballast)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_clr_bytes_do_not_depend_on_the_heap():
    first = _clr_digests(0)
    # Both grammars are conflicted under CLR(1), so the conflict log,
    # whose order used to follow frozenset iteration, is in the bytes.
    assert all(int(line.split()[1]) > 0 for line in first.splitlines())
    assert _clr_digests(5000) == first
