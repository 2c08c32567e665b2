"""End-to-end multi-batch experiment harness (paper Section 4 workflow).

Runs a workload's batches in arrival order against the simulated cluster,
one round of the controller's MAPE loop (paper §3.4) per batch:

* *analyze*: the :class:`AdaptiveController` decides, on the window of
  reports monitored up to the previous batch, whether to repartition;
* *execute*: the batch is priced (:func:`simulate_batch`) from the workers'
  reports under the assignment in force (:class:`TraceStats`: the trace
  joined with the assignment, aggregated in numpy);
* *plan*: Q-cut (:func:`run_qcut`) over the window queries' reports, turned
  into move(LS(q,w), w, w') vertex moves. The move happens at a global
  barrier during the batch, whose remaining ticks are priced from the
  reports under the new assignment (:func:`simulate_batch_switch`);
* *monitor*: the batch's per-query locality and per-worker workload feed
  the next decision.

Only the trace comes from Spark, and only :class:`TraceStats` reads it;
pricing, adaptivity and Q-cut run in numpy on the driver.

Static configurations never repartition. The Q-cut ILS runs asynchronously
in the real system (its latency is hidden, Appendix A.3); here the visible
repartitioning overhead is the global STOP/START barrier plus vertex
shipping, charged to every query still running at the switch.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.cluster.assignment import Assignment
from repro.cluster.costmodel import M2, CostModel
from repro.cluster.partitioners import domain_partition, hash_partition, ldg_partition
from repro.controller.adaptivity import DELTA, PLAN_WINDOW_QUERIES, AdaptiveController
from repro.controller.stats import TraceStats, qcut_input
from repro.core.qcut import QcutResult, run_qcut
from repro.engine.trace import Trace
from repro.queries.workload import Query, queries_by_batch
from repro.roadnet.generator import RoadNetwork
from repro.sync.barriers import BarrierMode, simulate_batch, simulate_batch_switch


# The global barrier of a repartition fires this far into the batch (stats
# need a few iterations before Q-cut can act).
_SWITCH_TICK_FRAC = 0.3
# Majority-of-neighbours sweeps over the vertices outside every window scope
# after a move (see _apply_qcut_moves).
_RESIDUAL_SWEEPS = 3


@dataclass
class ExperimentConfig:
    """One evaluation configuration (partitioning x barrier x infrastructure)."""

    k: int = 8
    initial: str = "hash"            # hash | domain | ldg
    adaptive: bool = False           # apply Q-cut at runtime?
    barrier: BarrierMode = "hybrid"  # hybrid | global (Fig. 6d baseline)
    cost: CostModel = M2
    seed: int = 0


@dataclass
class ExperimentResult:
    per_batch: pd.DataFrame   # batch-level metrics
    per_query: pd.DataFrame   # (qid, batch, latency, locality)
    final_assignment: Assignment
    qcut_runs: list[QcutResult]

    @property
    def total_latency(self) -> float:
        return float(self.per_query["latency"].sum())


def initial_assignment(net: RoadNetwork, k: int, name: str) -> Assignment:
    if name == "hash":
        return hash_partition(net.n_vertices, k)
    if name == "domain":
        return domain_partition(net, k)
    if name == "ldg":
        return ldg_partition(net, k)
    raise ValueError(f"unknown initial partitioner {name!r}")


def _exclusive_cluster_of(
    scope: dict[str, np.ndarray], clusters: list[list[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Partition the window's scope vertices into *disjoint* cluster chunks.

    Query scopes overlap, so a vertex can belong to several clusters'
    scopes; the physical move unit must be disjoint or conflicting move
    requests would undo the split the ILS planned. Each vertex goes to the
    cluster whose queries activated it most often (ties: lowest cluster id)
    — chunks are therefore activation-ball shaped, i.e. spatially coherent.
    ``scope`` holds (qid, vid, n_active) int64 columns, as
    :meth:`TraceStats.scope_vertices` returns them; rows of queries in no
    cluster are ignored. Returns (vids ascending, cluster of each)."""
    qid = scope["qid"]
    members = [q for qs in clusters for q in qs]
    cluster_of = np.full(max(members + [int(qid.max(initial=0))]) + 1, -1)
    cluster_of[members] = np.repeat(np.arange(len(clusters)), [len(qs) for qs in clusters])
    cl = cluster_of[qid]
    hit = cl >= 0
    vid, cl = scope["vid"][hit], cl[hit]
    # activations per (vid, cluster) in a dense table, then the first
    # most-activating cluster of every vid that has a row
    n_v, n_c = int(vid.max(initial=-1)) + 1, len(clusters)
    n = np.bincount(vid * n_c + cl, weights=scope["n_active"][hit],
                    minlength=n_v * n_c).reshape(n_v, n_c)
    vids = np.flatnonzero(np.bincount(vid, minlength=n_v))
    return vids, n[vids].argmax(axis=1)


def _residual_sweeps(workers: np.ndarray, free: np.ndarray, net: RoadNetwork, k: int) -> None:
    """Relabel, in place, each ``free`` vertex to the majority worker of its
    graph neighbours if that worker holds strictly more of them than its
    own; Gauss–Seidel sweeps in vid order, at most ``_RESIDUAL_SWEEPS``,
    stopping after a sweep that changes nothing.

    A vertex is examined only if its neighbour counts may have changed since
    it was last found stable: every free vertex is checked once up front,
    and after that only the neighbours of a relabelled vertex — later in
    vid order in the same sweep, earlier ones (or itself) in the next.
    Skipping any other vertex is exact, because its counts are unchanged.
    The edges hold both directions of every road, so a vertex's
    out-neighbours are the vertices whose counts it enters."""
    indptr, dst, _ = net.csr
    src = np.repeat(np.arange(len(workers)), np.diff(indptr))
    counts = np.bincount(src * k + workers[dst], minlength=len(workers) * k).reshape(-1, k)
    todo = np.flatnonzero(free)
    todo = todo[counts[todo].max(axis=1) > counts[todo, workers[todo]]].tolist()
    if not todo:
        return
    # the sweeps run on Python lists; the labels are written back once
    nbrs, label, is_free = net.out_neighbours, workers.tolist(), free.tolist()
    for _ in range(_RESIDUAL_SWEEPS):
        if not todo:
            break
        queued = set(todo)
        nxt: set[int] = set()
        heapq.heapify(todo)
        while todo:
            v = heapq.heappop(todo)
            nb = nbrs[v]
            c = [0] * k
            for u in nb:
                c[label[u]] += 1
            top = max(c)
            if top <= c[label[v]]:
                continue
            label[v] = c.index(top)  # the first majority worker, as argmax
            for u in nb:
                if not is_free[u]:
                    continue
                if u <= v:
                    nxt.add(u)
                elif u not in queued:
                    queued.add(u)
                    heapq.heappush(todo, u)
        todo = sorted(nxt)
    workers[:] = label


def _apply_qcut_moves(
    assignment: Assignment, result: QcutResult, scope: dict[str, np.ndarray],
    net: RoadNetwork
) -> tuple[Assignment, int]:
    """Translate the high-level placement back to vertex moves (paper §3.2.1
    step 3): each disjoint cluster chunk of ``scope`` follows its cluster's
    planned per-origin-worker destination.

    After the chunk moves, vertices *not* covered by any window scope are
    re-labelled, in vid order, to the majority worker of their graph
    neighbours for a few sweeps (:func:`_residual_sweeps`). A move request
    ships a coherent graph region, not a ragged vertex set: the observed
    scope is the region's core, and the enclosed unobserved remainder
    follows it — otherwise every region would be torn between its new core
    worker and the stale residue worker, splitting all future queries there
    (a scale artifact of the lite graphs, where one query ball covers a
    large fraction of its region; documented in DESIGN.md §2)."""
    scope_vids, cluster = _exclusive_cluster_of(scope, result.clusters)
    # dest[c, w]: where cluster c's scope first seen on worker w goes
    dest = np.tile(np.arange(assignment.k), (len(result.clusters), 1))
    for (c, w), w_to in result.cluster_placement.items():
        dest[c, w] = w_to
    new_workers = assignment.workers.copy()
    new_workers[scope_vids] = dest[cluster, assignment.worker_of(scope_vids)]

    free = np.ones(len(new_workers), dtype=bool)
    free[scope_vids] = False
    _residual_sweeps(new_workers, free, net, assignment.k)
    moved = int((new_workers != assignment.workers).sum())
    return Assignment(workers=new_workers, k=assignment.k), moved


def _plan(
    stats: TraceStats,
    assignment: Assignment,
    window: np.ndarray,
    iter_lt: dict[int, int],
    net: RoadNetwork,
    cfg: ExperimentConfig,
) -> tuple[QcutResult, Assignment, int] | None:
    """MAPE plan: Q-cut over the window queries' reports, then the vertex
    moves that realise its placement. Returns (Q-cut result, new
    assignment, moved vertices), or None if the window has no scope."""
    scope = stats.scope_vertices(window, iter_lt)
    inp = qcut_input(scope, assignment)
    if not inp.qids:
        return None
    # fixed seed: clustering boundaries stay stable across repartitions, so
    # placements accrete instead of reshuffling chunk borders every time
    qres = run_qcut(inp, delta=DELTA, seed=cfg.seed)
    return (qres, *_apply_qcut_moves(assignment, qres, scope, net))


def run_experiment(
    spark: SparkSession,
    net: RoadNetwork,
    queries: list[Query],
    trace: Trace,
    cfg: ExperimentConfig,
) -> ExperimentResult:
    """Price the traced workload under ``cfg``; adapt if configured.

    One MAPE round per batch (paper §3.4): *analyze* the reports monitored
    up to the previous batch and decide whether to repartition; *execute*
    the batch priced from the workers' reports under the assignment in
    force; if repartitioning, *plan* with Q-cut, move at a global barrier
    during the batch (running queries' scopes move mid-flight; their
    remaining iterations run on the new assignment) and
    *monitor* the batch's locality and workload. Only :class:`TraceStats`
    reads the trace. ``spark`` is unused: pricing runs no Spark job."""
    assignment = initial_assignment(net, cfg.k, cfg.initial)
    stats = TraceStats(trace)
    controller = AdaptiveController()
    batch_rows = []
    query_cols = []  # per batch: its qid, batch, latency, locality columns
    qcut_runs: list[QcutResult] = []
    try:
        for batch, qs in queries_by_batch(queries).items():
            qids = [int(q.qid) for q in qs]
            # execute: the batch's reports under the assignment in force
            ac = stats.active_counts(assignment, qids)
            mc = stats.message_counts(assignment, qids)
            plan = None
            # analyze: decide on the stats monitored up to the previous batch
            if cfg.adaptive and controller.should_repartition(batch - 1):
                # plan: the move happens at a global barrier during this
                # batch; its queries have reported iterations < switch_tick
                t_batch = int(ac["iter"].max()) + 1
                switch_tick = max(2, int(round(_SWITCH_TICK_FRAC * t_batch)))
                # the newest queries: the monitor window, then this batch's
                window = np.concatenate([controller.window_qids(batch - 1), qids])
                plan = _plan(stats, assignment, window[-PLAN_WINDOW_QUERIES:],
                             dict.fromkeys(qids, switch_tick), net, cfg)
            moved = 0
            if plan is None:
                res = simulate_batch(ac, mc, k=cfg.k, cost=cfg.cost, mode=cfg.barrier)
            else:
                qres, assignment, moved = plan
                qcut_runs.append(qres)
                controller.repartitioned(batch)
                res = simulate_batch_switch(
                    ac,
                    mc,
                    stats.active_counts(assignment, qids),
                    stats.message_counts(assignment, qids),
                    switch_tick=switch_tick,
                    switch_overhead=cfg.cost.barrier_cost(cfg.k)
                    + moved * cfg.cost.move_per_vertex / cfg.k,
                    k=cfg.k,
                    cost=cfg.cost,
                    mode=cfg.barrier,
                )
            # monitor: the stats piggybacked on the batch's barriers
            controller.observe_batch(batch, res.qids, res.locality, res.worker_totals)
            batch_rows.append(
                {
                    "batch": batch,
                    "n_queries": len(qids),
                    "avg_latency": res.avg_latency,
                    "sum_latency": res.sum_latency,
                    "avg_locality": res.avg_locality,
                    "imbalance": res.imbalance,
                    "imbalance_window": controller.window_imbalance(batch),
                    "repartitioned": plan is not None,
                    "moved_vertices": moved,
                }
            )
            query_cols.append((res.qids, np.full(len(res.qids), batch, dtype=np.int64),
                               res.latencies, res.locality))
        return ExperimentResult(
            per_batch=pd.DataFrame(batch_rows),
            per_query=pd.DataFrame(dict(zip(("qid", "batch", "latency", "locality"),
                                            map(np.concatenate, zip(*query_cols))))),
            final_assignment=assignment,
            qcut_runs=qcut_runs,
        )
    finally:
        stats.close()
