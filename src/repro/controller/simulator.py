"""End-to-end multi-batch experiment harness (paper Section 4 workflow).

Runs a workload's batches in arrival order against the simulated cluster:

  trace (Spark BSP, partition-independent)
    → per-assignment worker reports (numpy aggregations of trace ⋈
      assignment, :class:`TraceStats`)
      → per-batch latency/locality/imbalance (:func:`simulate_batch`)
        → MAPE adaptivity (:class:`AdaptiveController`)
          → Q-cut ILS (:func:`run_qcut`) → move(LS(q,w), w, w') → new
            assignment, re-priced reports.

Only the trace comes from Spark; pricing, adaptivity and Q-cut run in
numpy on the driver.

Static configurations simply never repartition. The Q-cut ILS runs
asynchronously in the real system (its latency is hidden, Appendix A.3);
here the visible repartitioning overhead is the global STOP/START barrier
plus vertex shipping, charged to the batch after the move.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.cluster.assignment import Assignment
from repro.cluster.costmodel import M2, CostModel
from repro.cluster.partitioners import domain_partition, hash_partition, ldg_partition
from repro.controller.adaptivity import AdaptiveController, AdaptivityParams
from repro.controller.stats import TraceStats, qcut_input
from repro.core.qcut import QcutResult, run_qcut
from repro.engine.trace import Trace
from repro.queries.workload import Query, queries_by_batch
from repro.roadnet.generator import RoadNetwork
from repro.sync.barriers import BarrierMode, simulate_batch, simulate_batch_switch


@dataclass
class ExperimentConfig:
    """One evaluation configuration (partitioning x barrier x infrastructure)."""

    k: int = 8
    initial: str = "hash"            # hash | domain | ldg
    adaptive: bool = False           # apply Q-cut at runtime?
    barrier: BarrierMode = "hybrid"  # hybrid | global (Fig. 6d baseline)
    cost: CostModel = M2
    adaptivity: AdaptivityParams = field(default_factory=AdaptivityParams)
    ils_time_budget: float | None = 0.5  # paper: 2 s; scaled problem is tiny
    ils_max_rounds: int = 40
    target_clusters: int | None = None   # None: balanced-Karger communities
    repartition_tick_frac: float = 0.3   # global barrier fires this far into
                                         # the batch (stats need a few
                                         # iterations before Q-cut can act)
    seed: int = 0

    @property
    def name(self) -> str:
        base = f"qcut+{self.initial}" if self.adaptive else self.initial
        return f"{base}/{self.barrier}/k={self.k}"


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    per_batch: pd.DataFrame   # batch-level metrics
    per_query: pd.DataFrame   # (qid, batch, latency, locality)
    final_assignment: Assignment
    qcut_runs: list[QcutResult]

    @property
    def total_latency(self) -> float:
        return float(self.per_query["latency"].sum())

    @property
    def avg_latency(self) -> float:
        return float(self.per_query["latency"].mean())


def initial_assignment(net: RoadNetwork, k: int, name: str) -> Assignment:
    if name == "hash":
        return hash_partition(net.n_vertices, k)
    if name == "domain":
        return domain_partition(net, k)
    if name == "ldg":
        return ldg_partition(net, k)
    raise ValueError(f"unknown initial partitioner {name!r}")


def _exclusive_cluster_of(
    window_activations: pd.DataFrame, clusters: list[list[int]]
) -> pd.DataFrame:
    """Partition the window's scope vertices into *disjoint* cluster chunks.

    Query scopes overlap, so a vertex can belong to several clusters'
    scopes; the physical move unit must be disjoint or conflicting move
    requests would undo the split the ILS planned. Each vertex goes to the
    cluster whose queries activated it most often (ties: lowest cluster id)
    — chunks are therefore activation-ball shaped, i.e. spatially coherent.
    Returns (vid, cluster)."""
    q2c = {q: ci for ci, qs in enumerate(clusters) for q in qs}
    a = window_activations[["qid", "vid"]].copy()
    a["cluster"] = a["qid"].map(q2c)
    counts = (
        a.groupby(["vid", "cluster"]).size().rename("n").reset_index()
        .sort_values(["vid", "n", "cluster"], ascending=[True, False, True])
    )
    return counts.drop_duplicates("vid")[["vid", "cluster"]]


def _apply_qcut_moves(
    assignment: Assignment,
    result: QcutResult,
    window_activations: pd.DataFrame,
    net: RoadNetwork,
    *,
    residual_sweeps: int = 3,
) -> tuple[Assignment, int]:
    """Translate the high-level placement back to vertex moves (paper §3.2.1
    step 3): each disjoint cluster chunk follows its cluster's planned
    per-origin-worker destination.

    After the chunk moves, vertices *not* covered by any window scope are
    re-labelled to the majority worker of their graph neighbours for a few
    sweeps. A move request ships a coherent graph region, not a ragged
    vertex set: the observed scope is the region's core, and the enclosed
    unobserved remainder follows it — otherwise every region would be torn
    between its new core worker and the stale residue worker, splitting all
    future queries there (a scale artifact of the lite graphs, where one
    query ball covers a large fraction of its region; documented in
    DESIGN.md §2)."""
    vc = _exclusive_cluster_of(window_activations, result.clusters)
    scope_vids = vc["vid"].to_numpy()
    cur = assignment.worker_of(scope_vids)
    new_workers = assignment.workers.copy()
    dest = np.array(
        [
            result.cluster_placement.get((int(c), int(w)), int(w))
            for c, w in zip(vc["cluster"].to_numpy(), cur)
        ],
        dtype=new_workers.dtype,
    )
    new_workers[scope_vids] = dest

    in_scope = np.zeros(len(new_workers), dtype=bool)
    in_scope[scope_vids] = True
    adj = net.adjacency()
    k = assignment.k
    for _ in range(residual_sweeps):
        changed = False
        for v in np.flatnonzero(~in_scope):
            nbrs = adj[int(v)]
            if not nbrs:
                continue
            counts = np.zeros(k, dtype=np.int64)
            for u, _ in nbrs:
                counts[new_workers[u]] += 1
            best = int(np.argmax(counts))
            if counts[best] > counts[new_workers[v]] and best != new_workers[v]:
                new_workers[v] = best
                changed = True
        if not changed:
            break

    moved = int((new_workers != assignment.workers).sum())
    return Assignment(workers=new_workers, k=assignment.k), moved


def run_experiment(
    spark: SparkSession,
    net: RoadNetwork,
    queries: list[Query],
    trace: Trace,
    cfg: ExperimentConfig,
) -> ExperimentResult:
    """Price the traced workload under ``cfg``; adapt if configured.

    ``spark`` is unused: pricing runs no Spark job."""
    assignment = initial_assignment(net, cfg.k, cfg.initial)
    stats = TraceStats(trace)
    controller = AdaptiveController(params=cfg.adaptivity)
    try:
        ac = stats.active_counts(assignment)
        mc = stats.message_counts(assignment)

        batch_rows = []
        query_rows = []
        qcut_runs: list[QcutResult] = []
        for batch, qs in queries_by_batch(queries).items():
            qids = [q.qid for q in qs]
            ac_b = ac[ac["qid"].isin(qids)]
            mc_b = mc[mc["qid"].isin(qids)] if len(mc) else mc

            # ---- MAPE analyze/plan: decide on stats up to the previous
            # batch, repartition at a global barrier *during* this batch
            # (paper §3.3/§3.4: the Q-cut runs asynchronously; running
            # queries' scopes move mid-flight and their remaining
            # iterations execute on the optimized partitioning).
            repartitioned = False
            moved = 0
            switch_tick = 0
            if cfg.adaptive and controller.should_repartition(batch - 1):
                t_batch = int(ac_b["iter"].max()) + 1
                switch_tick = max(2, int(round(cfg.repartition_tick_frac * t_batch)))
                # running queries have only reported iterations < switch_tick
                iter_lt = {int(q): switch_tick for q in qids}
                window = controller.window_qids(batch - 1) + [int(q) for q in qids]
                window = window[: cfg.adaptivity.max_window_queries]
                inp = qcut_input(stats.scope_vertices(window, iter_lt), assignment)
                if inp.qids:
                    qres = run_qcut(
                        inp,
                        delta=cfg.adaptivity.delta,
                        target_clusters=cfg.target_clusters,
                        time_budget=cfg.ils_time_budget,
                        max_rounds=cfg.ils_max_rounds,
                        # fixed seed: clustering boundaries stay stable
                        # across repartitions, so placements accrete
                        # instead of reshuffling chunk borders every time
                        seed=cfg.seed,
                    )
                    qcut_runs.append(qres)
                    a = trace.activations
                    win_act = a[
                        a["qid"].isin(set(inp.qids))
                        & (~a["qid"].isin(set(qids)) | (a["iter"] < switch_tick))
                    ]
                    assignment, moved = _apply_qcut_moves(
                        assignment, qres, win_act, net
                    )
                    if moved:
                        # only batches not yet priced need the new prices
                        min_qid = min(int(q) for q in qids)
                        keep_a = ac[ac["qid"] < min_qid]
                        keep_m = mc[mc["qid"] < min_qid] if len(mc) else mc
                        ac = pd.concat(
                            [keep_a, stats.active_counts(assignment, min_qid)],
                            ignore_index=True,
                        )
                        mc = pd.concat(
                            [keep_m, stats.message_counts(assignment, min_qid)],
                            ignore_index=True,
                        )
                    controller.repartitioned(batch)
                    repartitioned = True

            if repartitioned:
                overhead = (
                    cfg.cost.barrier_cost(cfg.k)
                    + moved * cfg.cost.move_per_vertex / cfg.k
                )
                res = simulate_batch_switch(
                    ac_b,
                    mc_b,
                    ac[ac["qid"].isin(qids)],
                    mc[mc["qid"].isin(qids)] if len(mc) else mc,
                    switch_tick=switch_tick,
                    switch_overhead=overhead,
                    k=cfg.k,
                    cost=cfg.cost,
                    mode=cfg.barrier,
                )
            else:
                res = simulate_batch(
                    ac_b, mc_b, k=cfg.k, cost=cfg.cost, mode=cfg.barrier
                )
            controller.observe_batch(batch, res.locality, res.worker_totals)
            window_imbalance = controller.window_imbalance(batch)

            batch_rows.append(
                {
                    "batch": batch,
                    "n_queries": len(qids),
                    "avg_latency": res.avg_latency,
                    "sum_latency": res.sum_latency,
                    "avg_locality": res.avg_locality,
                    "imbalance": res.imbalance,
                    "imbalance_window": window_imbalance,
                    "repartitioned": repartitioned,
                    "moved_vertices": moved,
                }
            )
            query_rows.append(
                pd.DataFrame(
                    {
                        "qid": res.latencies.index,
                        "batch": batch,
                        "latency": res.latencies.values,
                        "locality": res.locality.values,
                    }
                )
            )
        return ExperimentResult(
            config=cfg,
            per_batch=pd.DataFrame(batch_rows),
            per_query=pd.concat(query_rows, ignore_index=True),
            final_assignment=assignment,
            qcut_runs=qcut_runs,
        )
    finally:
        stats.close()
