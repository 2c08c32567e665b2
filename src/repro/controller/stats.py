"""Controller-side statistics (paper §3.4 "Dynamic Updates", Table 2).

Workers report ``stats(q, |LS(q,w)|, I_w, w)`` after each iteration; the
controller aggregates local scopes into global scopes and intersection
functions. In this reproduction the worker reports are numpy aggregations
of the execution trace joined with the current vertex assignment: a gather
``assignment.workers[vid]`` followed by a group-by count. They are the
controller's small high-level view, so no Spark job runs here; Spark is
used only by the BSP engine that records the trace.

A report is a ``dict[str, np.ndarray]`` of int64 columns keyed by column
name. Its rows are sorted by its key columns, so pricing does not depend on
the order in which the trace was recorded.

Every report has a DuckDB-oracle test in ``tests/test_stats_oracle.py``.
"""
from __future__ import annotations

import numpy as np

from repro.cluster.assignment import Assignment
from repro.core.qcut import QcutInput
from repro.engine.trace import Trace, qid_rows


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal entries of ``values``."""
    new = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=new[1:])
    start = np.flatnonzero(new)
    size = np.empty_like(start)
    size[:-1] = start[1:] - start[:-1]
    size[-1:] = len(values) - start[-1:]
    return start, size


def _group_count(columns: dict[str, np.ndarray], count: str) -> dict[str, np.ndarray]:
    """``SELECT cols, count(*) AS count GROUP BY cols ORDER BY cols``.

    The columns hold non-negative ids; each row is packed into one int64,
    a bit field per column, so the group-by is a single integer sort."""
    cols = {c: np.asarray(v, dtype=np.int64) for c, v in columns.items()}
    bits = {c: int(v.max(initial=0)).bit_length() for c, v in cols.items()}
    if sum(bits.values()) > 63:
        raise OverflowError("group-by key does not fit in int64")
    packed = None
    for c, v in cols.items():
        packed = v if packed is None else (packed << bits[c]) | v
    packed = np.sort(packed)
    first, n = _runs(packed)
    packed = packed[first]
    out = {}
    for c in reversed(cols):
        out[c] = packed & ((1 << bits[c]) - 1)
        packed = packed >> bits[c]
    return {**{c: out[c] for c in cols}, count: n}


class TraceStats:
    """Worker reports over one trace; reusable across assignments.

    Holds the trace as numpy columns; each method gathers the worker of
    every row's vertex under an assignment and returns a small report of
    numpy columns for the controller (the paper's high-level
    representation). The trace frames are sorted by qid first, so the rows
    of a query are one contiguous slice.
    """

    def __init__(self, trace: Trace):
        a, m = trace.activations, trace.messages
        self._act = {c: a[c].to_numpy() for c in ("qid", "iter", "vid")}
        self._msg = {c: m[c].to_numpy() for c in ("qid", "iter", "src", "dst")}
        for name, cols in (("activations", self._act), ("messages", self._msg)):
            if (np.diff(cols["qid"]) < 0).any():
                raise ValueError(f"trace {name} are not sorted by qid")

    def close(self) -> None:
        """Drop the trace columns; the object is unusable afterwards."""
        self._act = self._msg = None

    @staticmethod
    def _select(cols: dict[str, np.ndarray], qids) -> dict[str, np.ndarray]:
        """The rows of the queries ``qids`` in trace order, each selected
        once; every row if ``qids`` is None."""
        if qids is None:
            return cols
        rows = qid_rows(cols["qid"], qids)
        return {c: v[rows] for c, v in cols.items()}

    # -- worker reports -------------------------------------------------------
    def active_counts(self, assignment: Assignment, qids=None) -> dict[str, np.ndarray]:
        """(qid, iter, worker, n_active): per-iteration worker activity of
        the queries ``qids`` (all if None)."""
        a = self._select(self._act, qids)
        return _group_count(
            {"qid": a["qid"], "iter": a["iter"], "worker": assignment.worker_of(a["vid"])},
            "n_active",
        )

    def message_counts(self, assignment: Assignment, qids=None) -> dict[str, np.ndarray]:
        """(qid, iter, w_src, w_dst, n_msgs): message worker-pair counts of
        the queries ``qids`` (all if None)."""
        m = self._select(self._msg, qids)
        return _group_count(
            {"qid": m["qid"], "iter": m["iter"],
             "w_src": assignment.worker_of(m["src"]),
             "w_dst": assignment.worker_of(m["dst"])},
            "n_msgs",
        )

    def scope_vertices(self, qids=None, iter_lt: dict | None = None) -> dict[str, np.ndarray]:
        """(qid, vid, n_active): global-scope membership and how often the
        query activated the vertex, for the queries ``qids`` (all if None).

        ``iter_lt`` maps qid -> iteration bound: for those queries only
        activations with ``iter < bound`` count — a query still running at
        repartition time has reported stats only for its finished
        iterations (paper §3.4 piggybacked stats)."""
        a = self._select(self._act, qids)
        if iter_lt:
            q = a["qid"]
            bound = np.full(max(int(q.max(initial=0)), max(iter_lt)) + 1,
                            np.iinfo(np.int64).max)
            bound[list(iter_lt)] = list(iter_lt.values())
            keep = a["iter"] < bound[q]
            a = {c: v[keep] for c, v in a.items()}
        return _group_count({"qid": a["qid"], "vid": a["vid"]}, "n_active")


def qcut_input(scope_vertices: dict[str, np.ndarray], assignment: Assignment) -> QcutInput:
    """The Q-cut input for the queries of ``scope_vertices``.

    ``ls[i, w]`` = |LS(q_i, w)|, the scope vertices of query ``q_i`` on
    worker ``w``; ``overlaps`` = (qa, qb, shared) arrays with qa < qb and
    shared = |GS(qa) ∩ GS(qb)| > 0, one entry for every pair that shares a
    vertex, in (qa, qb) order. ``scope_vertices`` holds distinct
    (qid, vid) rows, as :meth:`TraceStats.scope_vertices` returns them.

    Overlaps are counted as pairs of rows that share a vertex: the rows are
    ordered by vertex, every pair within a vertex's run of rows is listed
    at once and the pairs are counted per query pair, in integer numpy on
    the calling thread (no BLAS product, whose worker threads keep
    spinning after the call returns)."""
    qids, qi = np.unique(scope_vertices["qid"], return_inverse=True)
    vid = scope_vertices["vid"]
    n, k = len(qids), assignment.k
    ls = np.bincount(qi * k + assignment.worker_of(vid),
                     minlength=n * k).reshape(n, k).astype(float)
    order = np.lexsort((qi, vid))  # by vertex, then query
    qo, vo = qi[order], vid[order]
    # each row pairs with the rows after it in its vertex's run
    start, size = _runs(vo)
    later = np.repeat(start + size, size) - np.arange(len(vo)) - 1
    first = np.repeat(np.arange(len(vo)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    shared = np.bincount(qo[first] * n + qo[second], minlength=n * n)
    pairs = np.flatnonzero(shared)  # ascending: by (qa, qb), as qids is sorted
    return QcutInput(qids=qids.tolist(), ls=ls, vcounts=assignment.vertex_counts(),
                     overlaps=(qids[pairs // n], qids[pairs % n], shared[pairs]))
