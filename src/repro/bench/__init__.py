"""Benchmark harness: timed sweeps and paper-style reporting."""

from .harness import (
    Measurement,
    engine_sweep,
    measure_phases,
    sweep,
    time_engine_top_k,
    time_top_k,
)
from .reporting import format_kv, format_table, measurements_table, series

__all__ = [
    "Measurement",
    "time_top_k",
    "sweep",
    "measure_phases",
    "time_engine_top_k",
    "engine_sweep",
    "format_table",
    "format_kv",
    "measurements_table",
    "series",
]
