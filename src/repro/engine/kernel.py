"""The frontier BSP of one shard of queries, run inside a Spark task.

:mod:`repro.engine.pregel` registers this module to be pickled by value, so
a task carries the code with it and runs on a Python worker that cannot
import ``repro``. It must therefore import nothing but numpy and pandas.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

# A task's rows: activations (qid, iter, vid), messages (qid, iter, vid=src,
# dst) and final rows (qid, vid, dist), told apart by ``tag``; unused fields
# are 0. Narrow types keep the collect small; the trace widens them again.
SCHEMA = "tag byte, qid long, iter int, vid int, dst int, dist double"
ACTIVATION, MESSAGE, FINAL = 0, 1, 2


def _block(tag: int, qid, it, vid, dst=0) -> np.ndarray:
    out = np.empty((len(qid), 5), dtype=np.int64)
    out[:, 0], out[:, 1], out[:, 2], out[:, 3], out[:, 4] = tag, qid, it, vid, dst
    return out


def run_shard(graph, qids, starts, tq, tv, max_iters: int) -> pd.DataFrame:
    """Trace rows of the queries ``qids`` (start vertices ``starts``) up to
    convergence or ``max_iters`` supersteps. ``graph`` is the CSR ``(indptr,
    dst, w)``; query ``tq[j]`` (an index into ``qids``) has the target vertex
    ``tv[j]``. The state is one float64 per (query, vertex), at the flat key
    ``query * |V| + vertex``.
    """
    indptr, dst, w = graph
    n_q, n_v = len(qids), len(indptr) - 1
    dist = np.full(n_q * n_v, np.inf)
    frontier = np.arange(n_q) * n_v + starts  # the active keys, ascending
    dist[frontier] = 0.0
    tkey = tq * n_v + tv
    blocks = []
    for it in range(max_iters):
        if not len(frontier):
            break
        q, v = np.divmod(frontier, n_v)
        blocks.append(_block(ACTIVATION, qids[q], it, v))
        bound = np.full(n_q, np.inf)  # the best distance at any target so far
        np.minimum.at(bound, tq, dist[tkey])
        # every out-edge of every active vertex, pruned against the bound
        deg = indptr[v + 1] - indptr[v]
        row = np.repeat(np.arange(len(v)), deg)
        e = np.arange(len(row)) + np.repeat(indptr[v] - np.cumsum(deg) + deg, deg)
        cand = dist[frontier[row]] + w[e]
        keep = cand < bound[q[row]]
        row, e, cand = row[keep], e[keep], cand[keep]
        blocks.append(_block(MESSAGE, qids[q[row]], it, v[row], dst[e]))
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
    blocks.append(_block(FINAL, qids[q], 0, v))
    rows = np.concatenate(blocks)
    out = pd.DataFrame(rows, columns=["tag", "qid", "iter", "vid", "dst"])
    out["dist"] = np.concatenate([np.zeros(len(rows) - len(reached)), dist[reached]])
    return out


def shard_task(graph, shards: list[tuple], max_iters: int):
    """The ``mapInPandas`` function: the trace rows of every shard whose
    index arrives in the ``id`` column of its input."""

    def task(batches):
        for batch in batches:
            for s in batch["id"]:
                yield run_shard(graph, *shards[s], max_iters)

    return task
