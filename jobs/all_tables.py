"""All ten tables (T1–T10) in one process: print each, write it under
results/, and report each table's wall time and the total on stderr.

    python jobs/all_tables.py
"""
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))
from _session import get_spark, write_results

if __name__ == "__main__":
    from repro.experiments import ALL_TABLES

    spark = get_spark("qgraph-all-tables")
    try:
        total = 0.0
        for table, table_fn in ALL_TABLES.items():
            t0 = time.perf_counter()
            result = table_fn(spark)
            seconds = time.perf_counter() - t0
            total += seconds
            print(result.show())
            write_results(result)
            print(f"{table}: {seconds:.2f} s", file=sys.stderr)
        print(f"T1-T10: {total:.2f} s", file=sys.stderr)
    finally:
        spark.stop()
