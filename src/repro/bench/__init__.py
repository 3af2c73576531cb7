"""Benchmark harness: timing, operation counting, and report formatting."""

from .harness import (
    METHODS,
    Timer,
    bench_snapshot,
    cost_row,
    grammar_row,
    measure_methods,
    profile_pipeline,
    speedup,
    sweep,
    time_callable,
)
from .report import dict_rows, format_series, format_table

__all__ = [
    "METHODS",
    "Timer",
    "bench_snapshot",
    "cost_row",
    "dict_rows",
    "format_series",
    "format_table",
    "grammar_row",
    "measure_methods",
    "profile_pipeline",
    "speedup",
    "sweep",
    "time_callable",
]
