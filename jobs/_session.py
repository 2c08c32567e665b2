"""Shared SparkSession builder for spark-submit entrypoints.

Jobs run standalone (``python jobs/t03_fig6a_sssp_bw_total.py`` or via
``spark-submit``); tests use the ``spark`` fixture from conftest.py instead.
"""
import os
import sys

os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
    "--conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.enabled=false pyspark-shell",
)

from pyspark.sql import SparkSession  # noqa: E402


def get_spark(app: str) -> SparkSession:
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
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


def run_table(table: str) -> None:
    """Run one table experiment, print it, and write it under results/."""
    from repro.experiments import ALL_TABLES

    spark = get_spark(f"qgraph-{table}")
    try:
        result = ALL_TABLES[table](spark)
        print(result.show())
        write_results(result)
    finally:
        spark.stop()
