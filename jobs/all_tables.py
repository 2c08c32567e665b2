"""Run tables T1–T10 in one process: print each, write it under results/,
and report each table's wall time and the total on stderr.

    python jobs/all_tables.py            # all ten tables
    python jobs/all_tables.py T3 T9      # only the named ones, in that order

An unknown table name exits non-zero before Spark starts and lists the
valid names.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
from _session import get_spark, run_tables, table_names

if __name__ == "__main__":
    try:
        names = table_names(sys.argv[1:])
    except ValueError as e:
        sys.exit(str(e))
    spark = get_spark("qgraph-tables")
    try:
        run_tables(spark, names)
    finally:
        spark.stop()
