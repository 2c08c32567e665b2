"""Execution traces of BSP query runs.

A :class:`Trace` is the *partition-independent* record of a multi-query BSP
execution: which vertices were active in which iteration of which query, and
which vertex-to-vertex messages were sent. In the BSP model the logical
execution is identical under every vertex placement — only timing differs —
so one trace can be re-priced under every partitioning strategy and barrier
model (DESIGN.md §3, "key simulation identity").

Traces are deterministic in (graph seed, workload seed, iteration cap), so
they are cached as parquet under ``.trace_cache/`` (or ``$REPRO_TRACE_CACHE``)
and reused by jobs and benchmarks.
"""
from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pandas as pd

CACHE_DIR = os.environ.get(
    "REPRO_TRACE_CACHE", os.path.join(os.path.dirname(__file__), "..", "..", "..", ".trace_cache")
)
# Part of every cache key: bump it when the parquet layout or engine
# semantics outside ENGINE_SOURCES change, so that no stale trace is re-priced.
TRACE_VERSION = 2
# The engine source a trace depends on, hashed into every workload key.
ENGINE_SOURCES = tuple(Path(__file__).with_name(f) for f in ("kernel.py", "vertex_programs.py"))


def qid_rows(qid: np.ndarray, qids) -> np.ndarray:
    """Positions, ascending, of the rows of the queries ``qids`` in the
    sorted qid column ``qid``, each row once. A query's rows are the slice
    of its qid; the slices of ascending qids ascend, so the rows keep their
    order."""
    q = np.unique(np.asarray(list(qids), dtype=np.int64))
    lo = np.searchsorted(qid, q)
    n = np.searchsorted(qid, q, side="right") - lo
    return np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)


@dataclass
class Trace:
    """Record of one multi-query BSP run.

    ``activations``: (qid, iter, vid) — vertex ``vid`` executed the vertex
    function in iteration ``iter`` of query ``qid``.
    ``messages``: (qid, iter, src, dst) — a message sent in iteration
    ``iter`` (from an active ``src`` to neighbour ``dst``).
    ``final``: (qid, vid, dist) — final per-query vertex data.
    ``truncated``: the sorted qids still active after the last superstep
    the engine was allowed (``max_iters``); empty for a complete trace. It
    is not saved: only complete traces are cached.

    Every frame is sorted by qid first (``run_queries`` writes them so).
    """

    activations: pd.DataFrame
    messages: pd.DataFrame
    final: pd.DataFrame
    truncated: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    def restrict(self, qids) -> "Trace":
        """Sub-trace containing only the given queries; rows keep their
        order and index labels."""
        qids = list(qids)
        act, msg, fin = (df.iloc[qid_rows(df["qid"].to_numpy(), qids)].copy()
                         for df in (self.activations, self.messages, self.final))
        return Trace(act, msg, fin, truncated=self.truncated[qid_rows(self.truncated, qids)])

    def save(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)
        self.activations.to_parquet(os.path.join(path, "activations.parquet"))
        self.messages.to_parquet(os.path.join(path, "messages.parquet"))
        self.final.to_parquet(os.path.join(path, "final.parquet"))

    @staticmethod
    def load(path: str) -> "Trace":
        return Trace(
            activations=pd.read_parquet(os.path.join(path, "activations.parquet")),
            messages=pd.read_parquet(os.path.join(path, "messages.parquet")),
            final=pd.read_parquet(os.path.join(path, "final.parquet")),
        )


def workload_key(net, queries) -> str:
    """Cache key derived from everything a trace depends on: the graph (its
    identity, CSR edges with weights, and POI-tagged vids), the full query
    content, and the source of the engine's kernel and vertex programs. Any
    change to generators, workloads or engine semantics invalidates the
    cached trace."""
    h = hashlib.sha256(f"{net.name}|{net.seed}|{net.n_vertices}|{net.n_edges}|".encode())
    for a in (*net.csr, net.vertices.loc[net.vertices["tag"], "vid"].to_numpy(np.int64)):
        h.update(a.tobytes())
    for path in ENGINE_SOURCES:
        h.update(path.read_bytes())
    h.update(";".join(f"{q.qid},{q.kind},{q.start},{q.end},{q.batch}" for q in queries).encode())
    return h.hexdigest()


def cached_trace(key: str, builder) -> Trace:
    """Load trace ``key`` from the parquet cache, or build and store it.

    ``builder`` is a zero-arg callable returning a :class:`Trace`. The key is
    hashed so callers can use long descriptive strings. A new entry is
    written to a temporary sibling directory and renamed into place, so a
    crash mid-write never leaves an entry that looks complete.
    """
    h = hashlib.sha256(f"v{TRACE_VERSION}|{key}".encode()).hexdigest()[:16]
    path = os.path.join(CACHE_DIR, h)
    if os.path.exists(os.path.join(path, "final.parquet")):
        return Trace.load(path)
    t = builder()
    os.makedirs(CACHE_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f".{h}-", dir=CACHE_DIR)
    try:
        t.save(tmp)
        os.replace(tmp, path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return t
