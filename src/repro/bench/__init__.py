"""Benchmark harness: wall-clock timing and the ``BENCH_*.json`` format.

See ``benchmarks/bench_parallel.py`` for the serial-vs-parallel sweep
benchmark that feeds ``BENCH_parallel.json`` at the repository root, and
``benchmarks/bench_batched.py`` for the serial-vs-stacked comparison
behind ``BENCH_batched.json`` (the stacked side runs through
:func:`repro.analysis.sweep.scenario_sweep`).
"""

from repro.bench.timing import (
    BENCH_SCHEMA,
    BenchRecord,
    machine_info,
    read_bench_json,
    single_core_warnings,
    time_call,
    write_bench_json,
)
from repro.bench.workloads import (
    digg_threshold_point,
    severity_axes,
    smoke_threshold_point,
)

__all__ = [
    "BENCH_SCHEMA",
    "BenchRecord",
    "time_call",
    "machine_info",
    "write_bench_json",
    "read_bench_json",
    "single_core_warnings",
    "digg_threshold_point",
    "smoke_threshold_point",
    "severity_axes",
]
