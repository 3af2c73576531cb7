"""Ablation C — default-reduction table compression.

Quantifies the classic generator optimisation applied on top of the
DP-built LALR tables: populated cells before/after compression, the
ratio, and the time compression takes.  It is a size ablation only: the
parse engines always run on the uncompressed table's code arrays, so
compression never reaches the parse loop.

Regenerate:  pytest benchmarks/bench_ablation_compress.py --benchmark-only -s
"""

import pytest

from repro.bench import Timer, format_table
from repro.tables import build_lalr_table
from repro.tables.compress import compress

from common import banner, prepared

PREPARED = prepared()
NAMES = ["expr", "json", "lua_like_chunks", "mini_pascal_det", "mini_c"]

TABLES = {}
for name in NAMES:
    grammar, automaton = PREPARED[name]
    TABLES[name] = build_lalr_table(grammar, automaton)


@pytest.mark.parametrize("name", NAMES)
def test_compression_time(benchmark, name):
    table = TABLES[name]
    benchmark(lambda: compress(table))


def test_report_ablation_compress(benchmark):
    def build():
        rows = []
        for name in NAMES:
            table = TABLES[name]
            with Timer() as compress_time:
                compressed = compress(table)
            rows.append([
                name,
                table.size_cells(),
                compressed.size_cells(),
                round(table.size_cells() / compressed.size_cells(), 2),
                round(compress_time.seconds * 1e3, 3),
            ])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    headers = ["grammar", "cells", "compressed_cells", "ratio", "compress_ms"]
    print(banner("Ablation C — default-reduction compression"))
    print(format_table(headers, rows))
    for row in rows:
        assert row[3] >= 1.0  # compression never grows the table
