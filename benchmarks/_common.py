"""Shared helper for the table benchmarks.

Each bench runs one table experiment end-to-end (pytest-benchmark measures
the wall time of pricing + adaptation; the underlying BSP trace is disk-
cached after its first computation so reruns measure the simulator, not
Spark trace generation) and prints the measured table for comparison with
EXPERIMENTS.md.
"""
from __future__ import annotations


def run_table_bench(benchmark, spark, table_fn):
    result = benchmark.pedantic(lambda: table_fn(spark), rounds=1, iterations=1)
    print()
    print(result.show())
    return result
