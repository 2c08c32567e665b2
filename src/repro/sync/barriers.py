"""Hybrid vs global barrier synchronization — tick-based latency simulation.

One *tick* i means "every live query of the batch executes its iteration i";
queries of a batch start together (paper: batches of 16 parallel queries).
Worker load per tick sums over *all* co-located queries — this models the
contention/straggler coupling the paper discusses (e.g. the Berlin worker).

Barrier modes (paper §3.3):

* ``hybrid``  — per-query *limited* barriers spanning only the workers the
  query currently touches; a single-worker group is a *local* barrier and
  costs nothing. Iteration duration of query q =
  ``max_{w in group(q,i)} L[w,i] + barrier(|group|)``.
* ``global``  — the state-of-the-art baseline [Xue et al. 44]: every query
  synchronizes across *all* k workers after every iteration. Duration =
  ``max_w L[w,i] + barrier(k)`` regardless of where q actually runs.

Latency(q) = Σ over q's live ticks (plus the per-iteration floor); this is
exactly the paper's query-latency definition (last minus first activation
time) under the simulated clock.

:func:`simulate_batch_switch` prices a batch whose vertex assignment changes
at a *global STOP/START barrier* mid-execution (paper §3.3 phase 3 + §3.4)
in one pass over the reports spliced at the switch: the old assignment's
rows of the ticks before it and the new one's of the ticks after, each in
their order, so every tick sums the same rows in the same order as a full
pricing under its assignment would. Every query live at the switch pays
the global barrier plus the vertex-shipping overhead.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.cluster.costmodel import CostModel

BarrierMode = Literal["hybrid", "global"]


@dataclass
class BatchSimResult:
    """Simulated execution of one batch of parallel queries."""

    qids: np.ndarray            # the batch's queries, ascending
    latencies: np.ndarray       # simulated latency of each query
    locality: np.ndarray        # fraction of fully-local iterations of each
    imbalance: float            # mean relative deviation of active-vertex load
    worker_totals: np.ndarray   # (k,) active vertices per worker over the batch

    @property
    def avg_latency(self) -> float:
        return float(self.latencies.mean())

    @property
    def sum_latency(self) -> float:
        return float(self.latencies.sum())

    @property
    def avg_locality(self) -> float:
        return float(self.locality.mean())


def imbalance(totals: np.ndarray) -> float:
    """Workload imbalance of per-worker totals (paper Fig. 6e): their mean
    relative deviation from the average; 0 if there is no workload."""
    if totals.sum() <= 0:
        return 0.0
    return float(np.abs(totals - totals.mean()).mean() / totals.mean())


def _rows(qids: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row of each report qid ``q`` in the sorted batch ``qids``; a report
    of a query outside the batch is a ValueError."""
    i = np.searchsorted(qids, q)
    if not np.array_equal(qids[np.minimum(i, len(qids) - 1)], q):
        missing = np.setdiff1d(q, qids)
        raise ValueError(f"reports of queries outside the batch: {missing.tolist()}")
    return i


def _price(
    ac: dict[str, np.ndarray],
    mc: dict[str, np.ndarray],
    qids: np.ndarray,
    *,
    k: int,
    cost: CostModel,
    mode: BarrierMode,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tick-level pricing for fixed ``qids``: (dur, group_size, AV).

    ``dur``/``group_size``: (n_queries, T); ``AV``: (k, T) active vertices.
    Ticks where a query is finished have dur 0 and group_size 0.
    """
    nq = len(qids)
    T = int(ac["iter"].max()) + 1

    # ---- per-worker per-tick load L and active-vertex counts AV ----------
    # each (worker, tick) cell sums, from 0.0 and in this order, the compute
    # of the activation rows, then the local messages, then the remote ones
    # at their source and at their destination: one weighted bincount adds
    # its rows to their cells in row order
    aw, ai, an = ac["worker"], ac["iter"], ac["n_active"]
    AV = np.bincount(aw * T + ai, weights=an, minlength=k * T).reshape(k, T)

    part = np.zeros((nq, T, k), dtype=bool)
    part[_rows(qids, ac["qid"]), ai, aw] = True

    ws, wd, mi, mn = mc["w_src"], mc["w_dst"], mc["iter"], mc["n_msgs"]
    local = ws == wd
    remote = ~local
    half = cost.remote_cost(k) / 2.0
    src = ws * T + mi
    cells = np.concatenate([aw * T + ai, src[local], src[remote], (wd * T + mi)[remote]])
    load = np.concatenate([cost.comp_per_vertex * an, cost.msg_local * mn[local],
                           half * mn[remote], half * mn[remote]])
    L = np.bincount(cells, weights=load, minlength=k * T).reshape(k, T)
    mq = _rows(qids, mc["qid"])
    part[mq, mi, ws] = True
    part[mq, mi, wd] = True

    group_size = part.sum(axis=2)  # (nq, T)
    live = group_size > 0

    # ---- durations per query per tick -------------------------------------
    if mode == "hybrid":
        masked = np.where(part, L.T[None, :, :], -np.inf)
        work = masked.max(axis=2)
        work[~live] = 0.0
        barrier = np.array([cost.barrier_cost(g) for g in range(k + 1)])
        dur = work + barrier[np.minimum(group_size, k)] + cost.iter_floor
    elif mode == "global":
        tick = L.max(axis=0) + cost.barrier_cost(k) + cost.iter_floor
        dur = np.broadcast_to(tick, (nq, T)).copy()
    else:
        raise ValueError(f"unknown barrier mode {mode!r}")
    dur[~live] = 0.0
    return dur, group_size, AV


def _result(
    qids: np.ndarray, dur: np.ndarray, group_size: np.ndarray, AV: np.ndarray
) -> BatchSimResult:
    live = group_size > 0
    # Paper Fig. 6e: workload = active vertices per worker in a time window
    # (60 s there, one batch here).
    totals = AV.sum(axis=1)
    return BatchSimResult(
        qids=qids,
        latencies=dur.sum(axis=1),
        locality=(group_size == 1).sum(axis=1) / np.maximum(live.sum(axis=1), 1),
        imbalance=imbalance(totals),
        worker_totals=totals,
    )


def simulate_batch(
    ac: dict[str, np.ndarray],
    mc: dict[str, np.ndarray],
    *,
    k: int,
    cost: CostModel,
    mode: BarrierMode = "hybrid",
) -> BatchSimResult:
    """Price one batch under one barrier mode and one fixed assignment.

    The inputs are the workers' reports as int64 numpy columns keyed by
    name (:class:`repro.controller.stats.TraceStats` returns them), restricted
    to the batch's queries: ``ac`` holds (qid, iter, worker, n_active)
    active-vertex counts, ``mc`` (qid, iter, w_src, w_dst, n_msgs) message
    counts. Row order does not matter; ``mc`` may have no rows.
    """
    if len(ac["qid"]) == 0:
        raise ValueError("batch has no activations")
    qids = np.unique(ac["qid"])
    dur, group_size, AV = _price(ac, mc, qids, k=k, cost=cost, mode=mode)
    return _result(qids, dur, group_size, AV)


def simulate_batch_switch(
    ac_before: dict[str, np.ndarray],
    mc_before: dict[str, np.ndarray],
    ac_after: dict[str, np.ndarray],
    mc_after: dict[str, np.ndarray],
    *,
    switch_tick: int,
    switch_overhead: float,
    k: int,
    cost: CostModel,
    mode: BarrierMode = "hybrid",
) -> BatchSimResult:
    """Price one batch whose assignment changes at ``switch_tick``.

    The four inputs are reports as in :func:`simulate_batch`, each pair
    taken under the assignment before and after the switch. Ticks <
    ``switch_tick`` use the *before* reports, ticks >= use *after*. The
    batch's queries are those of ``ac_before``; a row of another query in
    any report is a ValueError, even one the splice drops. Both pairs come
    from one trace, so a query is live in the same ticks under both. Every
    query still live at the switch additionally pays ``switch_overhead``
    (the global STOP/START barrier + vertex shipping).
    """
    if len(ac_before["qid"]) == 0:
        raise ValueError("batch has no activations")
    qids = np.unique(ac_before["qid"])
    for report in (mc_before, ac_after, mc_after):
        _rows(qids, report["qid"])  # also the rows the splice drops
    T = int(ac_before["iter"].max()) + 1
    s = int(min(max(switch_tick, 0), T))

    def splice(before, after):
        b, a = before["iter"] < s, after["iter"] >= s
        return {c: np.concatenate([before[c][b], after[c][a]]) for c in before}

    dur, group_size, AV = _price(splice(ac_before, ac_after), splice(mc_before, mc_after),
                                 qids, k=k, cost=cost, mode=mode)
    if s < T:
        dur[(group_size[:, s:] > 0).any(axis=1), s] += switch_overhead
    return _result(qids, dur, group_size, AV)
