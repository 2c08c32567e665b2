#!/usr/bin/env python3
"""Benchmark of the Q-graph reproduction: cold BSP traces and re-pricing.

    python3 qgbench/run.py --workload adapt_bw --seed 1 --seconds 20 --trace 0

Run from the repository root. The command generates the workload's inputs
from ``--seed``, launches and warms Spark, times repeated runs for
``--seconds`` seconds, checks every output outside the timed region and
prints one JSON line as the last line of standard output. ``--trace 1`` adds
a traced run and prints the per-layer metrics instead of the end-to-end
ones. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

sys.dont_write_bytecode = True

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")

CORES = min(4, os.cpu_count() or 1)
DRIVER_MEM = "2g"
SHUFFLE_PARTITIONS = "16"          # as jobs/_session.get_spark
BROADCAST_THRESHOLD = "10485760"   # Spark's default, which the jobs keep
WORKLOAD_NAMES = ("trace_wide_poi", "adapt_bw")


def _launch_env(work: str) -> None:
    """Point the scratch files of Python, the JVM and Spark into ``work``.

    Runs before pyspark or repro is imported: ``REPRO_TRACE_CACHE`` is read
    when ``repro.engine.trace`` is imported, so every invocation starts with
    an empty trace cache of its own, and the submit arguments are read when
    the JVM is launched.
    """
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    os.environ["REPRO_TRACE_CACHE"] = os.path.join(work, "trace_cache")
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{CORES}]",
        f"--driver-memory {DRIVER_MEM}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        f"--conf spark.local.dir={shlex.quote(os.path.join(work, 'spark'))}",
        f"--driver-java-options {shlex.quote(java_opts)}",
        "pyspark-shell",
    ])


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as e:
        sys.exit(f"qgbench: cannot import the program from {SRC}: {e}")
    if not os.path.realpath(repro.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"qgbench: repro was imported from {repro.__file__}, not {SRC}")


def _start_spark(work: str):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("qgbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", BROADCAST_THRESHOLD)
        .config("spark.sql.adaptive.enabled", "true")
        .config("spark.sql.warehouse.dir", os.path.join(work, "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    spark.range(1).count()
    return spark


def _stop_spark(spark) -> None:
    """Stop Spark and wait for the JVM it launched to exit."""
    gateway = spark.sparkContext._gateway
    proc = gateway.proc
    spark.stop()
    gateway.shutdown()
    proc.stdin.close()  # the gateway JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _peak_rss_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _measure(w, seconds: float) -> list[tuple[float, object]]:
    """Run ``w`` back to back until ``seconds`` have passed, at least once.
    A run whose program call raised is kept as (seconds, exception)."""
    runs = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        try:
            out = w.run()
        except Exception as e:  # a failed program call is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            out = e
        runs.append((time.perf_counter() - t0, out))
        if time.perf_counter() >= deadline:
            return runs


def _check(w, runs) -> tuple[int, int, set[str]]:
    """(attempted, failed, digests) over the set-up trace and every run."""
    attempted, failed, digests = w.setup_units, w.setup_failed, set()
    for _, out in runs:
        attempted += w.units
        if isinstance(out, Exception):
            failed += w.units
            continue
        n, digest = w.check(out)
        failed += n
        digests.add(digest)
    return attempted, failed, digests


def run(workload: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    _launch_env(work)
    _import_program()
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS, timed

    stages: dict[str, float] = {}
    stages["spark_session"], spark = timed(lambda: _start_spark(work))
    try:
        tracer = Tracer(spark) if trace else None
        w = WORKLOADS[workload]()
        w.setup(spark, seed, stages, tracer)
        runs = _measure(w, seconds)
        traced = []
        if trace:
            tracer.install()
            try:
                traced = _measure(w, 0)
            finally:
                tracer.uninstall()
        jvm_rss = _peak_rss_mb(spark.sparkContext._gateway.proc.pid)
    finally:
        _stop_spark(spark)

    attempted, failed, digests = _check(w, runs + traced)
    for d in sorted(digests - {""}):
        print(f"qgbench: {workload} seed={seed} outputs sha256={d}")
    run_s = statistics.median(t for t, _ in runs)
    if trace:
        metrics = layer_metrics(tracer)
        for stage in ("spark_session", "warmup", "roadnet", "queries", "trace", "reference"):
            metrics[f"setup.{stage}_s"] = (stages.get(stage, 0.0), "s")
        metrics["spark.jvm_peak_rss_mb"] = (jvm_rss, "MB")
        metrics["trace.overhead_frac"] = (traced[0][0] / run_s - 1.0, "frac")
        metrics["failed_frac"] = (failed / attempted, "frac")
    else:
        metrics = {
            "run_s": (run_s, "s"),
            "queries_per_s": (statistics.median(w.units / t for t, _ in runs), "1/s"),
            "setup_s": (sum(stages.values()), "s"),
            "driver_peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
    print(f"qgbench: {workload} seed={seed} run_s={[round(t, 3) for t, _ in runs + traced]} "
          f"setup_s={ {k: round(v, 3) for k, v in stages.items()} } "
          f"failed={failed}/{attempted}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isdir(SRC):
        sys.exit(f"qgbench: no program sources at {SRC}")
    scratch = os.path.join(BENCH, ".work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another invocation is still using it
            pass
    print(json.dumps(result))


if __name__ == "__main__":
    main()
