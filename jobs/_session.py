"""SparkSession builder and table runner for ``jobs/all_tables.py``.

The job runs standalone (``python jobs/all_tables.py [T1 ... T10]``) or via
``spark-submit``; tests use the ``spark`` fixture from conftest.py instead.
"""
import os
import sys
import time

os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
    "--conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.enabled=false pyspark-shell",
)

from pyspark.sql import SparkSession  # noqa: E402

from repro.experiments import ALL_TABLES  # noqa: E402


def get_spark(app: str) -> SparkSession:
    s = SparkSession.builder.appName(app).getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    return s


RESULTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results")


def result_paths(table: str) -> tuple[str, str]:
    """``results/tNN.csv`` and ``results/tNN_summary.csv`` of table ``TN``."""
    stem = os.path.join(RESULTS, f"t{int(table[1:]):02d}")
    return f"{stem}.csv", f"{stem}_summary.csv"


def write_results(result) -> None:
    """Write a table's ``rows``, and its ``extras["summary"]`` where it has
    one, under results/. pandas writes each float in its shortest exact
    repr; read them back with ``float_precision="round_trip"``."""
    rows_path, summary_path = result_paths(result.table)
    os.makedirs(RESULTS, exist_ok=True)
    result.rows.to_csv(rows_path, index=False)
    if "summary" in result.extras:
        result.extras["summary"].to_csv(summary_path, index=False)
    print(f"rows written to {rows_path}", file=sys.stderr)


def table_names(names: list[str]) -> list[str]:
    """``names`` if each names a table, or every table for no names. An
    unknown name raises ``ValueError`` listing the valid ones."""
    if unknown := [n for n in names if n not in ALL_TABLES]:
        raise ValueError(f"unknown table {' '.join(unknown)}; valid: {' '.join(ALL_TABLES)}")
    return list(names) or list(ALL_TABLES)


def run_tables(spark, names: list[str]) -> None:
    """Run the named tables (every table for no names) in order: print
    each, write it under results/, and report each table's wall time and
    the total on stderr."""
    total = 0.0
    for table in table_names(names):
        t0 = time.perf_counter()
        result = ALL_TABLES[table](spark)
        seconds = time.perf_counter() - t0
        total += seconds
        print(result.show())
        write_results(result)
        print(f"{table}: {seconds:.2f} s", file=sys.stderr)
    print(f"total: {total:.2f} s", file=sys.stderr)
