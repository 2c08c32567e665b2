"""The frontier BSP of one shard of queries, run inside a Spark task.

:mod:`repro.engine.pregel` registers this module to be pickled by value, so
a task carries the code with it and runs on a Python worker that cannot
import ``repro``. It must therefore import nothing but numpy. A shard's
trace leaves the task as numpy blocks, one row per trace column: the
activations (qid, iter, vid), the messages (qid, iter, src, dst), the final
(qid, vid) with its dist array, and the qids still active at ``max_iters``.
"""
from __future__ import annotations

import numpy as np


def run_shard(graph, qids, starts, tq, tv, max_iters: int):
    """The trace blocks ``(activations, messages, final, dist, truncated)``
    of the queries ``qids`` (start vertices ``starts``), run to convergence
    or ``max_iters`` supersteps. ``graph`` is the CSR ``(indptr, dst, w)``;
    query ``tq[j]`` (an index into ``qids``) has the target vertex ``tv[j]``.
    The state is one float64 per (query, vertex), at the flat key ``query *
    |V| + vertex``.
    """
    indptr, dst, w = graph
    n_q, n_v = len(qids), len(indptr) - 1
    dist = np.full(n_q * n_v, np.inf)
    frontier = np.arange(n_q) * n_v + starts  # the active keys, ascending
    dist[frontier] = 0.0
    tkey = tq * n_v + tv
    acts, msgs = [np.empty((3, 0), np.int64)], [np.empty((4, 0), np.int64)]
    for it in range(max_iters):
        if not len(frontier):
            break
        q, v = np.divmod(frontier, n_v)
        acts.append(np.stack([qids[q], np.full(len(q), it), v]))
        bound = np.full(n_q, np.inf)  # the best distance at any target so far
        np.minimum.at(bound, tq, dist[tkey])
        # every out-edge of every active vertex, pruned against the bound
        deg = indptr[v + 1] - indptr[v]
        row = np.repeat(np.arange(len(v)), deg)
        e = np.arange(len(row)) + np.repeat(indptr[v] - np.cumsum(deg) + deg, deg)
        cand = dist[frontier[row]] + w[e]
        keep = cand < bound[q[row]]
        row, e, cand = row[keep], e[keep], cand[keep]
        msgs.append(np.stack([qids[q[row]], np.full(len(row), it), v[row], dst[e]]))
        # min combiner; a vertex is re-activated only on strict improvement
        key = q[row] * n_v + dst[e]
        order = np.lexsort((cand, key))
        key, cand = key[order], cand[order]
        head = np.diff(key, prepend=-1) != 0
        key, cand = key[head], cand[head]
        better = cand < dist[key]
        frontier = key[better]
        dist[frontier] = cand[better]
    reached = np.flatnonzero(dist < np.inf)
    q, v = np.divmod(reached, n_v)
    return (np.concatenate(acts, axis=1), np.concatenate(msgs, axis=1),
            np.stack([qids[q], v]), dist[reached], np.unique(qids[frontier // n_v]))


def shard_task(graph, shards: list[tuple], max_iters: int):
    """The ``mapPartitions`` function: the trace blocks of every shard whose
    index arrives in its iterator."""

    def task(ids):
        for s in ids:
            yield run_shard(graph, *shards[s], max_iters)

    return task
