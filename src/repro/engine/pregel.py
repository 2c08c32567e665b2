"""The multi-query BSP superstep loop (paper Section 2, "Background").

One loop executes *all* queries of a workload simultaneously — states are
keyed by (qid, vid), so queries are logically independent exactly as in
Q-Graph's decoupled per-query execution. The state lives in Spark, and a
superstep runs three Spark jobs:

1. collect the frontier, the active ``(qid, vid, dist)`` rows: the
   activation trace and the termination test;
2. broadcast the frontier back, each row carrying its query's bound, and
   join it with the edges into ``msgs``, the candidates ``dist + w`` below
   the bound;
3. update the state in one shuffle: ``state ∪ msgs`` grouped by
   ``(qid, vid)`` with the min combiner (the map stage; the result stage
   runs in the next superstep's collect).

``msgs`` and the state are lazy local checkpoints, stored by the first job
that reads them and released before the loop returns. The broadcast hint
pins the plan whatever ``spark.sql.autoBroadcastJoinThreshold`` is.

Bounds are kept on the driver. A state row's ``dist`` changes only when the
row is (re)activated, and then the row is in the next frontier, so the
running minimum of ``dist`` over the frontier rows at a query's targets
equals the minimum over its current state rows at the targets.

The activation and message trace feeds the simulated cluster (see
:mod:`repro.engine.trace`); since BSP execution is partition-independent,
it is computed once per workload and re-priced under every
partitioning/synchronization configuration. The message trace is
collected once, after the last superstep.
"""
from __future__ import annotations

import math
from functools import reduce

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.engine.trace import Trace
from repro.engine.vertex_programs import init_state, targets_for
from repro.queries.workload import Query
from repro.roadnet.generator import RoadNetwork

_INF = float(math.inf)


def _release(checkpoints: list[DataFrame]) -> None:
    """Drop the stored blocks of local checkpoints. They stay stored after
    the last Python reference is gone, and PySpark has no call for this."""
    for df in checkpoints:
        df._jdf.queryExecution().analyzed().rdd().unpersist(False)


def _bsp_loop(
    spark: SparkSession,
    edges: DataFrame,
    state0: pd.DataFrame,
    targets: pd.DataFrame,
    *,
    max_iters: int,
) -> Trace:
    """Run the relaxation loop until no query has an active vertex."""
    edges = edges.select("src", "dst", "w")
    checkpoints: list[DataFrame] = []  # released before returning

    def checkpoint(df: DataFrame) -> DataFrame:
        df = df.localCheckpoint(eager=False)
        checkpoints.append(df)
        return df

    state = checkpoint(spark.createDataFrame(state0.assign(active=True)))
    # qid -> best dist found at any of its targets (see the module docstring)
    bound = pd.Series(_INF, index=pd.Index(state0["qid"].unique(), name="qid"))
    cols_a = ["qid", "iter", "vid"]
    cols_m = ["qid", "iter", "src", "dst"]
    act_frames: list[pd.DataFrame] = []
    msg_parts: list[DataFrame] = []
    try:
        for it in range(max_iters):
            frontier = state.filter(F.col("active")).select("qid", "vid", "dist").toPandas()
            if frontier.empty:
                break
            act_frames.append(frontier[["qid", "vid"]].assign(iter=it))
            hits = frontier.merge(targets, on=["qid", "vid"]).groupby("qid")["dist"].min()
            bound = np.minimum(bound, hits.reindex(bound.index, fill_value=_INF))

            active = F.broadcast(spark.createDataFrame(
                frontier.assign(bound=frontier["qid"].map(bound))))
            msgs = checkpoint(
                active.join(edges, active["vid"] == edges["src"])
                .select(
                    "qid",
                    F.lit(it).cast("long").alias("iter"),
                    "src",
                    "dst",
                    (active["dist"] + edges["w"]).alias("cand"),
                    "bound",
                )
                .filter(F.col("cand") < F.col("bound"))
                .drop("bound")
            )
            msg_parts.append(msgs)

            joined = (
                state.select("qid", "vid", "dist", F.lit(None).cast("double").alias("cand"))
                .unionByName(msgs.select(
                    "qid", F.col("dst").alias("vid"), F.lit(None).cast("double").alias("dist"),
                    "cand"))
                .groupBy("qid", "vid")
                .agg(F.min("dist").alias("dist"), F.min("cand").alias("cand"))
            )
            state = checkpoint(joined.select(
                "qid",
                "vid",
                F.least(
                    F.coalesce(F.col("dist"), F.lit(_INF)),
                    F.coalesce(F.col("cand"), F.lit(_INF)),
                ).alias("dist"),
                (
                    F.col("cand").isNotNull()
                    & (F.col("cand") < F.coalesce(F.col("dist"), F.lit(_INF)))
                ).alias("active"),
            ))

        final = state.select("qid", "vid", "dist").toPandas()
        messages = (
            reduce(DataFrame.unionAll, msg_parts).select(*cols_m).toPandas()
            if msg_parts
            else pd.DataFrame(columns=cols_m)
        )
    finally:
        _release(checkpoints)
    activations = (
        pd.concat(act_frames, ignore_index=True)[cols_a]
        if act_frames
        else pd.DataFrame(columns=cols_a)
    )
    return Trace(activations=activations, messages=messages, final=final)


def run_queries(
    spark: SparkSession,
    edges: DataFrame,
    queries: list[Query],
    net: RoadNetwork,
    *,
    max_iters: int = 200,
) -> Trace:
    """Execute a workload of SSSP/POI queries; return its execution trace.

    ``edges`` is the (src, dst, w) DataFrame of ``net`` (both directions).
    All queries run in one shared superstep loop; per-query termination is
    implicit (a finished query simply has no active vertices left).
    """
    if not queries:
        raise ValueError("empty workload")
    qids = [q.qid for q in queries]
    if len(set(qids)) != len(qids):
        raise ValueError("duplicate qids in workload")
    return _bsp_loop(
        spark,
        edges,
        init_state(queries),
        targets_for(queries, net),
        max_iters=max_iters,
    )
