"""Table-level experiment definitions (paper Section 4 → tables T1–T10).

Each ``table_tNN`` function reproduces the numbers behind one evaluation
figure of the paper (DESIGN.md §4 maps figures to tables) and returns a
:class:`TableResult` whose ``rows`` are the measured counterparts of the
numbers the paper reports. ``jobs/all_tables.py`` runs them by name and
``benchmarks/`` wraps them for pytest-benchmark; EXPERIMENTS.md records
paper-vs-measured values.

Workloads and traces are deterministic and disk-cached (one BSP execution
per workload, re-priced under every configuration — DESIGN.md §3). Each
Fig-5 workload and its trace are read once per process
(:func:`_fig5_workload`), and each (workload, configuration) is priced once
per process (:func:`_phase1`). T9 reads only the phase-1 workload and
prices no strategy.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.cluster.costmodel import C1, M1, M2
from repro.controller.simulator import ExperimentConfig, ExperimentResult, run_experiment
from repro.core.qcut import run_qcut
from repro.engine import cached_trace, run_queries
from repro.engine.trace import Trace, workload_key
from repro.controller.stats import TraceStats, qcut_input
from repro.queries.workload import Query, hotspot_queries
from repro.roadnet.datasets import bw_lite, gy_lite
from repro.roadnet.generator import RoadNetwork

N_MAIN = 384          # paper: 2048 queries; scaled (see DESIGN.md §2)
N_DISTURB = 128       # paper: 496 inter-urban disturbance queries
N_BARRIER = 64        # paper Fig. 6d: 64 SSSP queries
N_SCALE = 128         # paper Fig. 7: 1024 queries
BATCH = 16            # paper: 16 parallel queries per batch


@dataclass
class TableResult:
    """Measured reproduction of one paper table/figure."""

    table: str
    title: str
    rows: pd.DataFrame
    notes: str = ""
    extras: dict = field(default_factory=dict)

    def show(self) -> str:
        lines = [f"== {self.table}: {self.title} ==", self.rows.to_string(index=False)]
        if self.notes:
            lines.append(f"note: {self.notes}")
        if "summary" in self.extras:
            lines += ["-- summary --", self.extras["summary"].to_string(index=False)]
        return "\n".join(lines)


# --------------------------------------------------------------------------
# workloads and traces
# --------------------------------------------------------------------------

def sssp_workload(net: RoadNetwork, *, seed: int, n: int = N_MAIN,
                  disturb: int = 0, disturb_seed: int | None = None) -> list[Query]:
    """Hotspot SSSP workload; optionally followed by the Fig. 5 disturbance
    phase (inter-urban queries between random neighboring cities)."""
    qs = hotspot_queries(net, n_queries=n, batch_size=BATCH, seed=seed)
    if disturb:
        qs += hotspot_queries(
            net, n_queries=disturb, batch_size=BATCH, inter_urban=True,
            seed=(disturb_seed if disturb_seed is not None else seed + 10),
            qid_offset=n, batch_offset=n // BATCH,
        )
    return qs


def poi_workload(net: RoadNetwork, *, seed: int, n: int = N_MAIN) -> list[Query]:
    return hotspot_queries(net, n_queries=n, batch_size=BATCH, kind="poi", seed=seed)


def trace_for(spark: SparkSession, net: RoadNetwork, queries: list[Query],
              *, max_iters: int = 150) -> Trace:
    """Disk-cached BSP trace of a workload (one Spark execution per key).
    A trace cut off at ``max_iters`` raises ``RuntimeError`` and is not cached."""
    def build():
        trace = run_queries(spark, None, queries, net, max_iters=max_iters)
        if len(trace.truncated):
            raise RuntimeError(f"queries {trace.truncated.tolist()} still active at {max_iters=}")
        return trace

    return cached_trace(f"{workload_key(net, queries)}|max_iters={max_iters}", build)


def _strategies(k: int, cost, *, seed: int = 0) -> dict[str, ExperimentConfig]:
    return {
        "hash": ExperimentConfig(k=k, initial="hash", cost=cost, seed=seed),
        "domain": ExperimentConfig(k=k, initial="domain", cost=cost, seed=seed),
        "qcut+hash": ExperimentConfig(
            k=k, initial="hash", adaptive=True, cost=cost, seed=seed),
        "qcut+domain": ExperimentConfig(
            k=k, initial="domain", adaptive=True, cost=cost, seed=seed),
    }


def _run_all(spark, net, queries, trace, configs: dict) -> dict:
    return {name: run_experiment(spark, net, queries, trace, cfg)
            for name, cfg in configs.items()}


# (dataset preset, seed) -> _fig5_workload's and _phase1's results, for the
# life of the process; the preset function is the key because a RoadNetwork
# is not hashable
_FIG5_WORKLOAD: dict = {}
_PHASE1: dict = {}


def _fig5_workload(spark, preset, *, seed):
    """``(net, queries, trace, phase1)`` of the Fig-5 workload on
    ``preset()``: the full workload (intra phase + disturbance) and its
    trace, which T1 and T2 price, and ``phase1 = (queries, trace)``, its
    first phase and the full trace restricted to it (queries are
    independent, so no second workload is traced), which T3, T4, T7, T8 and
    T9 read. Memoised apart from its pricing; callers must not mutate what
    it returns."""
    if (preset, seed) not in _FIG5_WORKLOAD:
        net = preset()
        queries = sssp_workload(net, seed=seed, disturb=N_DISTURB)
        trace = trace_for(spark, net, queries)
        phase1 = [q for q in queries if q.batch < N_MAIN // BATCH]
        _FIG5_WORKLOAD[preset, seed] = (
            net, queries, trace, (phase1, trace.restrict([q.qid for q in phase1])))
    return _FIG5_WORKLOAD[preset, seed]


def _phase1(spark, preset, *, seed):
    """``(net, queries, trace, results)``: the phase-1 view of
    :func:`_fig5_workload` and the four strategies' results on it (k=8,
    M2). Memoised; callers must not mutate what it returns."""
    net, _, _, (queries, trace) = _fig5_workload(spark, preset, seed=seed)
    if (preset, seed) not in _PHASE1:
        _PHASE1[preset, seed] = _run_all(spark, net, queries, trace, _strategies(8, M2))
    return net, queries, trace, _PHASE1[preset, seed]


# --------------------------------------------------------------------------
# T1 / T2 — Fig. 5a/5b: adaptive Q-cut over time with disturbance
# --------------------------------------------------------------------------

def _adaptive_over_time(spark, preset, *, seed, table, title) -> TableResult:
    net, queries, trace, _ = _fig5_workload(spark, preset, seed=seed)
    res = _run_all(spark, net, queries, trace, _strategies(8, M2, seed=seed))
    hash_lat = res["hash"].per_batch.set_index("batch")["avg_latency"]

    def strategy_rows(name, pb):
        batch = pb["batch"].to_numpy(np.int64)
        latency = pb["avg_latency"].to_numpy(np.float64)
        return pd.DataFrame({
            "strategy": name,
            "batch": batch,
            "phase": np.where(batch < N_MAIN // BATCH, "intra", "disturb"),
            "avg_latency": latency,
            "normalized_vs_hash": latency / hash_lat.loc[batch].to_numpy(),
            "locality": pb["avg_locality"].to_numpy(np.float64),
            "repartitioned": pb["repartitioned"].to_numpy(bool),
        })

    df = pd.concat([strategy_rows(name, r.per_batch) for name, r in res.items()], ignore_index=True)
    best = {
        name: 1.0 - df[(df.strategy == name) & (df.batch >= 6)]["normalized_vs_hash"].min()
        for name in res
    }
    summary = pd.DataFrame(
        {"strategy": list(best), "best_batch_reduction_vs_hash": list(best.values())}
    )
    return TableResult(table=table, title=title, rows=df, extras={"summary": summary})


def table_t01(spark: SparkSession) -> TableResult:
    """Fig. 5a — BW, SSSP, k=8, M2, disturbance to inter-urban.

    Paper: Q-cut reduces avg latency by up to 49% vs static Hash and up to
    40% vs static Domain (phase 1); improvements persist after the
    disturbance."""
    return _adaptive_over_time(spark, bw_lite, seed=42, table="T1",
                               title="Fig 5a: adaptive Q-cut over time (BW, SSSP)")


def table_t02(spark: SparkSession) -> TableResult:
    """Fig. 5b — GY, SSSP. Paper: up to 45% vs Hash, 30% vs Domain; Hash
    relatively better than on BW (workload balance matters more)."""
    return _adaptive_over_time(spark, gy_lite, seed=43, table="T2",
                               title="Fig 5b: adaptive Q-cut over time (GY, SSSP)")


# --------------------------------------------------------------------------
# T3 / T4 / T5 — Fig. 6a/6b/6c: summed latency
# --------------------------------------------------------------------------

def _summed_latency(res: dict[str, ExperimentResult], *, title, table, paper_note
                    ) -> TableResult:
    """Summed latency of each strategy's result in ``res``."""
    rows = pd.DataFrame(
        [
            {
                "strategy": name,
                "total_latency": r.total_latency,
                "vs_hash": r.total_latency / res["hash"].total_latency,
                "vs_domain": r.total_latency / res["domain"].total_latency,
                "locality_tail": float(r.per_batch["avg_locality"].tail(8).mean()),
                "imbalance_tail": float(r.per_batch["imbalance_window"].tail(8).mean()),
            }
            for name, r in res.items()
        ]
    )
    return TableResult(table=table, title=title, rows=rows, notes=paper_note)


def table_t03(spark: SparkSession) -> TableResult:
    net, phase1, trace1, res = _phase1(spark, bw_lite, seed=42)
    # the paper's excluded LDG baseline (§4.1 "Initial Partitioning")
    ldg = run_experiment(spark, net, phase1, trace1,
                         ExperimentConfig(k=8, initial="ldg", cost=M2))
    return _summed_latency(
        {**res, "ldg (paper-excluded)": ldg},
        table="T3", title="Fig 6a: summed latency, SSSP on BW",
        paper_note="paper: Q-cut -43% vs Hash, -22% vs Domain; LDG was "
                   "excluded by the paper for 2-6x worse latency (imbalance) "
                   "— measured here for completeness",
    )


def table_t04(spark: SparkSession) -> TableResult:
    _, _, _, res = _phase1(spark, gy_lite, seed=43)
    return _summed_latency(
        res,
        table="T4", title="Fig 6b: summed latency, SSSP on GY",
        paper_note="paper: Q-cut -13% vs Hash, -25% vs Domain (Hash beats Domain)",
    )


def table_t05(spark: SparkSession) -> TableResult:
    net = bw_lite()
    queries = poi_workload(net, seed=44)
    return _summed_latency(
        _run_all(spark, net, queries, trace_for(spark, net, queries), _strategies(8, M2)),
        table="T5", title="Fig 6c: summed latency, POI on BW",
        paper_note="paper: Q-cut -50% vs Hash, -28% vs Domain",
    )


# --------------------------------------------------------------------------
# T6 — Fig. 6d: hybrid vs traditional (global) barrier synchronization
# --------------------------------------------------------------------------

def table_t06(spark: SparkSession) -> TableResult:
    """64 SSSP queries on BW, k=8, infrastructure M1 (paper Fig. 6d).

    Paper: Domain is 1.7–2.4x faster than Hash; hybrid barriers are
    1.2–1.7x faster than traditional global barriers for both."""
    net = bw_lite()
    queries = sssp_workload(net, seed=45, n=N_BARRIER)
    trace = trace_for(spark, net, queries)
    configs = {(i, b): ExperimentConfig(k=8, initial=i, barrier=b, cost=M1)
               for i in ("hash", "domain") for b in ("global", "hybrid")}
    res = _run_all(spark, net, queries, trace, configs)
    rows = pd.DataFrame([(i, b, r.total_latency) for (i, b), r in res.items()],
                        columns=["partitioning", "barrier", "total_latency"])
    by_barrier = rows.pivot(index="partitioning", columns="barrier", values="total_latency")
    rows["speedup_hybrid"] = rows["partitioning"].map(by_barrier["global"] / by_barrier["hybrid"])
    return TableResult(
        table="T6", title="Fig 6d: hybrid vs global barrier (BW, 64 SSSP, M1)",
        rows=rows,
        notes="paper: hybrid 1.2-1.7x faster; Domain 1.7-2.4x faster than Hash",
    )


# --------------------------------------------------------------------------
# T7 / T8 — Fig. 6e/6f: workload imbalance and query locality over time
# --------------------------------------------------------------------------

def _metric_over_time(spark, column, *, table, title, note) -> TableResult:
    _, _, _, res = _phase1(spark, bw_lite, seed=42)
    df = pd.concat(
        [pd.DataFrame({"strategy": name,
                       "batch": r.per_batch["batch"].to_numpy(np.int64),
                       column: r.per_batch[column].to_numpy(np.float64)})
         for name, r in res.items()],
        ignore_index=True,
    )
    tail = df[df.batch >= df.batch.max() - 7].groupby("strategy")[column].mean()
    summary = tail.rename("tail_mean").reset_index()
    return TableResult(table=table, title=title, rows=df, notes=note,
                       extras={"summary": summary})


def table_t07(spark: SparkSession) -> TableResult:
    return _metric_over_time(
        spark, "imbalance_window",
        table="T7", title="Fig 6e: workload imbalance over time (BW, SSSP)",
        note="paper: Domain high, Hash balanced, Q-cut converges to ~20% (delta=0.25)",
    )


def table_t08(spark: SparkSession) -> TableResult:
    return _metric_over_time(
        spark, "avg_locality",
        table="T8", title="Fig 6f: query locality over time (BW, SSSP)",
        note="paper: Domain >95%, Hash ~38%, Q-cut converges to ~80%",
    )


# --------------------------------------------------------------------------
# T9 — Fig. 6g: ILS cost during one Q-cut run
# --------------------------------------------------------------------------

def table_t09(spark: SparkSession) -> TableResult:
    """First ILS execution on the Hash-partitioned BW graph (paper Fig. 6g).

    Paper: best-solution cost drops by >75% within the 2 s budget;
    perturbations visibly escape local minima."""
    from repro.cluster.partitioners import hash_partition

    net, _, _, (phase1, trace1) = _fig5_workload(spark, bw_lite, seed=42)
    queries = [q for q in phase1 if q.batch < 8]  # first 128 queries
    trace = trace1.restrict([q.qid for q in queries])
    assignment = hash_partition(net.n_vertices, 8)
    qres = run_qcut(
        qcut_input(TraceStats(trace).scope_vertices(), assignment),
        max_rounds=500,  # a round cap in place of the paper's 2 s wall-clock budget
        seed=0,
    )
    hist = pd.DataFrame({"step": range(len(qres.history)), "best_cost": qres.history})
    hist["perturbation"] = hist["step"].isin(qres.perturbation_steps)
    reduction = 1.0 - qres.cost_final / qres.cost_initial if qres.cost_initial else 0.0
    return TableResult(
        table="T9", title="Fig 6g: ILS best-cost trace (Hash-partitioned BW)",
        rows=hist,
        notes=f"cost {qres.cost_initial:.0f} -> {qres.cost_final:.0f} "
              f"(-{100*reduction:.0f}%; paper: >75%), "
              f"{len(qres.perturbation_steps)} perturbations",
        extras={"reduction": reduction},
    )


# --------------------------------------------------------------------------
# T10 — Fig. 7: scale-out on C1
# --------------------------------------------------------------------------

def table_t10(spark: SparkSession) -> TableResult:
    """Total latency vs number of workers on the C1 cluster preset.

    Paper (SSSP): Hash 927 s @k=2 -> 474 s @k=8 -> 863 s @k=16 (non-
    monotone); Q-cut/Hash 283 s @k=8; Domain 1790 -> 562 s (k 2->16);
    Q-cut/Domain 1150 -> 301 s. Similar results for POI."""
    net = bw_lite()
    rows = []
    for kind, seed in (("sssp", 46), ("poi", 47)):
        queries = (sssp_workload(net, seed=seed, n=N_SCALE) if kind == "sssp"
                   else poi_workload(net, seed=seed, n=N_SCALE))
        trace = trace_for(spark, net, queries)
        for k in (2, 4, 8, 16):
            for name, r in _run_all(spark, net, queries, trace, _strategies(k, C1)).items():
                rows.append({"kind": kind, "k": k, "strategy": name,
                             "total_latency": r.total_latency})
    return TableResult(
        table="T10", title="Fig 7: scalability on C1 (BW, SSSP & POI)",
        rows=pd.DataFrame(rows),
        notes="paper: Hash non-monotone (min at k=8), Q-cut best, "
              "Domain/Q-cut keep improving to k=16",
    )


ALL_TABLES = {
    "T1": table_t01, "T2": table_t02, "T3": table_t03, "T4": table_t04,
    "T5": table_t05, "T6": table_t06, "T7": table_t07, "T8": table_t08,
    "T9": table_t09, "T10": table_t10,
}
