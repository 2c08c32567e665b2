"""Shared helper for the table benchmarks.

Each bench runs one table experiment end-to-end (pytest-benchmark measures
the wall time of pricing + adaptation; the underlying BSP trace is disk-
cached after its first computation so reruns measure the simulator, not
Spark trace generation) and prints the measured table for comparison with
EXPERIMENTS.md.

``repro.experiments`` prices the BW phase-1 workload once per process and is
not cleared between benches: T3 prices it, and the T7 and T8 benches that
run after T3 time a view over those results. The time of all ten tables in
one process (``python jobs/all_tables.py``) is the figure of merit, not the
sum of the benches.
"""
from __future__ import annotations


def run_table_bench(benchmark, spark, table_fn):
    result = benchmark.pedantic(lambda: table_fn(spark), rounds=1, iterations=1)
    print()
    print(result.show())
    return result
