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
at a *global STOP/START barrier* mid-execution (paper §3.3 phase 3 + §3.4):
ticks before the switch are priced under the old assignment, ticks after
under the new one, and every query live at the switch pays the global
barrier plus the vertex-shipping overhead.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
import pandas as pd

from repro.cluster.costmodel import CostModel

BarrierMode = Literal["hybrid", "global"]


@dataclass
class BatchSimResult:
    """Simulated execution of one batch of parallel queries."""

    latencies: pd.Series        # qid -> simulated query latency
    locality: pd.Series         # qid -> fraction of fully-local iterations
    imbalance: float            # mean relative deviation of active-vertex load
    worker_active: np.ndarray   # (k, T) active vertices per worker per tick

    @property
    def avg_latency(self) -> float:
        return float(self.latencies.mean())

    @property
    def sum_latency(self) -> float:
        return float(self.latencies.sum())

    @property
    def avg_locality(self) -> float:
        return float(self.locality.mean())

    @property
    def worker_totals(self) -> np.ndarray:
        """Active vertices per worker summed over the batch (workload)."""
        return self.worker_active.sum(axis=1)


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
    L = np.zeros((k, T))
    AV = np.zeros((k, T))
    aw, ai, an = ac["worker"], ac["iter"], ac["n_active"]
    np.add.at(L, (aw, ai), cost.comp_per_vertex * an)
    np.add.at(AV, (aw, ai), an)

    part = np.zeros((nq, T, k), dtype=bool)
    part[_rows(qids, ac["qid"]), ai, aw] = True

    ws, wd, mi, mn = mc["w_src"], mc["w_dst"], mc["iter"], mc["n_msgs"]
    local = ws == wd
    np.add.at(L, (ws[local], mi[local]), cost.msg_local * mn[local])
    remote = ~local
    half = cost.remote_cost(k) / 2.0
    np.add.at(L, (ws[remote], mi[remote]), half * mn[remote])
    np.add.at(L, (wd[remote], mi[remote]), half * mn[remote])
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
    latencies = pd.Series(dur.sum(axis=1), index=pd.Index(qids, name="qid"))
    loc = (group_size == 1).sum(axis=1) / np.maximum(live.sum(axis=1), 1)
    locality = pd.Series(loc, index=pd.Index(qids, name="qid"))

    # Paper Fig. 6e: workload = active vertices per worker in a time window
    # (60 s there, one batch here).
    return BatchSimResult(
        latencies=latencies,
        locality=locality,
        imbalance=imbalance(AV.sum(axis=1)),
        worker_active=AV,
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
    batch's queries are those of ``ac_before``. Every query still live at
    the switch additionally pays ``switch_overhead`` (the global STOP/START
    barrier + vertex shipping).
    """
    if len(ac_before["qid"]) == 0:
        raise ValueError("batch has no activations")
    qids = np.unique(ac_before["qid"])
    dur_b, gs_b, av_b = _price(ac_before, mc_before, qids, k=k, cost=cost, mode=mode)
    dur_a, gs_a, av_a = _price(ac_after, mc_after, qids, k=k, cost=cost, mode=mode)
    T = dur_b.shape[1]
    s = int(min(max(switch_tick, 0), T))
    dur = np.concatenate([dur_b[:, :s], dur_a[:, s:]], axis=1)
    group_size = np.concatenate([gs_b[:, :s], gs_a[:, s:]], axis=1)
    AV = np.concatenate([av_b[:, :s], av_a[:, s:]], axis=1)
    live_at_switch = (gs_b[:, s:] > 0).any(axis=1) if s < T else np.zeros(len(qids), bool)
    dur[live_at_switch, s if s < T else T - 1] += switch_overhead
    return _result(qids, dur, group_size, AV)
