"""The multi-query BSP engine (paper Section 2, "Background").

Queries are logically independent, as in Q-Graph's decoupled per-query
execution: a query's state is keyed by (qid, vid), its messages come only
from its own state and its pruning bound only from its own targets. So the
trace of a workload is the union of its queries' traces run alone, and the
engine shards the *queries*, not the vertices. One RDD job, with no
relational operator and so no DataFrame, runs one task per shard,
``defaultParallelism`` shards (a task has a fixed cost, so more shards than
cores only add overhead). On Python 3.11 that cost is about 0.2 s per task:
a one-task job with a trivial function takes 0.16–0.24 s on a 4-core VM,
almost all of it in the worker's ``setup_spark_files``, whose
``importlib.invalidate_caches()`` re-reads ``pyspark.zip``'s directory once
for each of the 16 zipimporters in ``sys.path_importer_cache`` (0.22 s
measured inside a task); CPython 3.12 made that lazy (gh-103200). The road
network's CSR and each shard's starts and
targets travel in the task's closure. A task runs its shard's frontier BSP
to convergence, or to ``max_iters`` supersteps, in numpy
(:mod:`repro.engine.kernel`), with Pregel's semantics (Malewicz et al.,
SIGMOD'10): a min combiner, re-activation only on strict improvement, and a
running bound, the best distance found at any of the query's targets. It
returns its trace as numpy blocks; the driver collects them, concatenates
each kind and sorts it into its frame, so the trace depends on neither the
shard count nor the task order. A shard's state is shard size x |V| x 8 B;
shards are made smaller where that would exceed ``_SHARD_STATE_BYTES``.

The trace feeds the simulated cluster (:mod:`repro.engine.trace`): BSP
execution is partition-independent, so it is computed once per workload and
re-priced under every partitioning/synchronization configuration.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark import cloudpickle
from pyspark.sql import DataFrame, SparkSession

from repro.engine import kernel
from repro.engine.trace import Trace
from repro.engine.vertex_programs import targets_for
from repro.queries.workload import Query
from repro.roadnet.generator import RoadNetwork

# Python workers need not import repro: the kernel travels by value.
cloudpickle.register_pickle_by_value(kernel)

_SHARD_STATE_BYTES = 64 << 20  # per task


def _shard_task(net: RoadNetwork, queries: list[Query], n_shards: int, max_iters: int):
    """The ``mapPartitions`` function: shard ``s`` runs queries ``s, s +
    n_shards, ...`` over the CSR of ``net``."""
    qids = np.array([q.qid for q in queries], dtype=np.int64)
    starts = np.array([q.start for q in queries], dtype=np.int64)
    tq, tv = targets_for(queries, net)
    shards = [(qids[s::n_shards], starts[s::n_shards],
               tq[tq % n_shards == s] // n_shards, tv[tq % n_shards == s])
              for s in range(n_shards)]
    return kernel.shard_task(net.csr, shards, max_iters)


def run_queries(
    spark: SparkSession,
    edges: DataFrame | None,
    queries: list[Query],
    net: RoadNetwork,
    *,
    max_iters: int,
) -> Trace:
    """Execute a workload of SSSP/POI queries; return its execution trace,
    sorted by (qid, iter, vid), (qid, iter, src, dst) and (qid, vid).

    ``edges`` is unused: the engine reads the graph from ``net``, and callers
    pass ``None``. A query still active after ``max_iters`` supersteps is
    cut off there and listed in ``Trace.truncated``.
    """
    if not queries:
        raise ValueError("empty workload")
    qids = [q.qid for q in queries]
    if len(set(qids)) != len(qids):
        raise ValueError("duplicate qids in workload")
    sc = spark.sparkContext
    per_shard = max(1, _SHARD_STATE_BYTES // (8 * net.n_vertices))
    n_shards = max(min(len(queries), sc.defaultParallelism), -(-len(queries) // per_shard))
    task = _shard_task(net, queries, n_shards, max_iters)
    blocks = sc.parallelize(range(n_shards), n_shards).mapPartitions(task).collect()
    act, msg, fin, dist, truncated = (np.concatenate(b, axis=-1) for b in zip(*blocks))

    def frame(block, names, dist=None):  # sorted by the block's rows as keys, first row first
        order = np.lexsort(block[::-1])
        cols = dict(zip(names, block[:, order]))
        return pd.DataFrame(cols if dist is None else {**cols, "dist": dist[order]})

    return Trace(activations=frame(act, ["qid", "iter", "vid"]),
                 messages=frame(msg, ["qid", "iter", "src", "dst"]),
                 final=frame(fin, ["qid", "vid"], dist),
                 truncated=np.unique(truncated))
