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
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def run_table(table: str) -> None:
    """Run one table experiment, print it, and drop a CSV under results/."""
    from repro.experiments import ALL_TABLES

    spark = get_spark(f"qgraph-{table}")
    try:
        result = ALL_TABLES[table](spark)
        print(result.show())
        out = os.path.join(os.path.dirname(__file__), "..", "results")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"{table.lower()}.csv")
        result.rows.to_csv(path, index=False)
        print(f"rows written to {path}", file=sys.stderr)
    finally:
        spark.stop()
