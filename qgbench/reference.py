"""Independent output references for the benchmark's correctness checks.

* :func:`replay` — a numpy frontier-BSP replay of a multi-query workload
  with the engine's semantics (Pregel, Malewicz et al. SIGMOD'10): a min
  combiner, re-activation only on strict improvement, messages pruned
  against the best distance found so far at any target of the query, and
  no iteration cap. It yields the exact per-(qid, iter) activation and
  message sets and the final (qid, vid, dist) state.
* :func:`dijkstra_targets` — exact travel time from each query's start to
  its nearest target (SSSP: the end vertex; POI: any tagged vertex).
* :func:`check_trace` — compares an engine trace with both and returns the
  qids whose trace or distance is wrong.

Nothing here imports Spark or the engine.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
import pandas as pd


@dataclass
class Replay:
    activations: pd.DataFrame  # (qid, iter, vid)
    messages: pd.DataFrame     # (qid, iter, src, dst)
    final: pd.DataFrame        # (qid, vid, dist)
    supersteps: int            # global supersteps until no query is active


def _csr(net):
    e = net.edges.sort_values(["src", "dst"], kind="stable")
    src = e["src"].to_numpy(np.int64)
    indptr = np.zeros(net.n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=net.n_vertices), out=indptr[1:])
    return indptr, e["dst"].to_numpy(np.int64), e["w"].to_numpy(np.float64)


def _target_sets(net, queries) -> list[np.ndarray]:
    tagged = net.vertices.loc[net.vertices["tag"], "vid"].to_numpy(np.int64)
    return [np.array([q.end], dtype=np.int64) if q.kind == "sssp" else tagged
            for q in queries]


def replay(net, queries) -> Replay:
    """Frontier-BSP replay of all ``queries`` at once over dense (Q x V) state."""
    indptr, dst, w = _csr(net)
    n_q, n_v = len(queries), net.n_vertices
    qids = np.array([q.qid for q in queries], dtype=np.int64)
    targets = np.zeros((n_q, n_v), dtype=bool)
    for i, ts in enumerate(_target_sets(net, queries)):
        targets[i, ts] = True
    dist = np.full((n_q, n_v), np.inf)
    active = np.zeros((n_q, n_v), dtype=bool)
    starts = np.array([q.start for q in queries], dtype=np.int64)
    dist[np.arange(n_q), starts] = 0.0
    active[np.arange(n_q), starts] = True

    acts, msgs = [], []
    it = 0
    while active.any():
        qa, va = np.nonzero(active)
        acts.append(np.column_stack([qids[qa], np.full(len(qa), it), va]))
        bound = np.where(targets, dist, np.inf).min(axis=1)
        deg = indptr[va + 1] - indptr[va]
        rep = np.repeat(np.arange(len(qa)), deg)
        eidx = indptr[va][rep] + (np.arange(len(rep)) - np.repeat(np.cumsum(deg) - deg, deg))
        mq, ms, md = qa[rep], va[rep], dst[eidx]
        cand = dist[mq, ms] + w[eidx]
        keep = cand < bound[mq]
        mq, ms, md, cand = mq[keep], ms[keep], md[keep], cand[keep]
        msgs.append(np.column_stack([qids[mq], np.full(len(mq), it), ms, md]))
        best = np.full(n_q * n_v, np.inf)
        np.minimum.at(best, mq * n_v + md, cand)
        best = best.reshape(n_q, n_v)
        active = best < dist
        dist = np.minimum(dist, best)
        it += 1

    fq, fv = np.nonzero(np.isfinite(dist))
    return Replay(
        activations=pd.DataFrame(np.concatenate(acts), columns=["qid", "iter", "vid"]),
        messages=pd.DataFrame(np.concatenate(msgs), columns=["qid", "iter", "src", "dst"]),
        final=pd.DataFrame({"qid": qids[fq], "vid": fv, "dist": dist[fq, fv]}),
        supersteps=it,
    )


def dijkstra_targets(net, queries) -> dict[int, float]:
    """qid -> exact travel time from the start to the nearest target."""
    adj = net.adjacency()
    out: dict[int, float] = {}
    for q, ts in zip(queries, _target_sets(net, queries)):
        goal = set(int(t) for t in ts)
        best: dict[int, float] = {q.start: 0.0}
        pq = [(0.0, q.start)]
        out[q.qid] = float("inf")
        while pq:
            d, u = heapq.heappop(pq)
            if d > best[u]:
                continue
            if u in goal:
                out[q.qid] = d
                break
            for v, wt in adj[u]:
                nd = d + wt
                if nd < best.get(v, float("inf")):
                    best[v] = nd
                    heapq.heappush(pq, (nd, v))
    return out


def _rows_by_qid(df: pd.DataFrame, cols: list[str]) -> dict[int, np.ndarray]:
    a = df[cols].to_numpy()
    a = a[np.lexsort(a.T[::-1])] if len(a) else a
    qid = a[:, 0] if len(a) else np.empty(0)
    cut = np.flatnonzero(np.diff(qid)) + 1
    return {int(g[0, 0]): g for g in np.split(a, cut) if len(g)}


def _mismatched(got: pd.DataFrame, want: pd.DataFrame, cols: list[str]) -> set[int]:
    g, r = _rows_by_qid(got, cols), _rows_by_qid(want, cols)
    return {q for q in g.keys() | r.keys()
            if q not in g or q not in r or not np.array_equal(g[q], r[q])}


def check_trace(trace, net, queries, ref: Replay, dists: dict[int, float],
                *, max_iters: int) -> set[int]:
    """qids whose engine trace disagrees with the replay or with Dijkstra.

    A replay deeper than ``max_iters`` means the engine cut the trace off:
    every query still active at the cap fails.
    """
    bad = _mismatched(trace.activations, ref.activations, ["qid", "iter", "vid"])
    bad |= _mismatched(trace.messages, ref.messages, ["qid", "iter", "src", "dst"])
    bad |= _mismatched(trace.final, ref.final, ["qid", "vid", "dist"])
    a = ref.activations
    bad |= set(a.loc[a["iter"] >= max_iters, "qid"].astype(int))
    f = trace.final
    for q, ts in zip(queries, _target_sets(net, queries)):
        got = f.loc[(f["qid"] == q.qid) & f["vid"].isin(ts), "dist"].min()
        if not got == dists[q.qid]:
            bad.add(q.qid)
    return bad
