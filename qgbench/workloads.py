"""The benchmark's workloads: inputs from a seed, set-up, one timed run, checks.

Each workload's ``setup`` records its stage times in ``stages`` (median of
``SETUP_REPEATS`` for the cheap stages; the Spark session and the cold
trace of ``adapt_bw`` are timed once). ``run`` is the timed region and calls
the program through module attributes, so the wrappers of
:mod:`spans` see the calls. ``check`` runs outside the timed region and
returns (failed units, digest of the outputs).
"""
from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

import repro.controller.simulator as simulator
import repro.engine.pregel as pregel
import repro.experiments as experiments
from repro.cluster.costmodel import M2
from repro.queries.workload import hotspot_queries
from repro.roadnet.datasets import bw_lite, edges_df

from reference import check_trace, dijkstra_targets, replay

MAX_ITERS = 150                # the cap the tables' trace_for uses
SETUP_REPEATS = 3
N_QUERIES = 128                # 8 batches of 16
WIDE_SUPERSTEPS = 24           # the most common depth of 128 POI queries
WIDE_MESSAGES = (58_000, 64_000)  # around the median message count at that depth
MAX_WINDOWS = 64
ADAPT_PARTS = 2                # 128-query workloads priced per adapt_bw run
K = 8
CONFIGS = ("hash", "domain", "qcut+hash", "qcut+domain")


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _median_timed(fn):
    runs = [timed(fn) for _ in range(SETUP_REPEATS)]
    return statistics.median(t for t, _ in runs), runs[-1][1]


def _first_window(draw, size: int, accept) -> int:
    """Index of the first window of ``size`` queries of the generator
    stream ``draw(n)``, in generator order, that ``accept`` takes."""
    pool = []
    for j in range(MAX_WINDOWS):
        if len(pool) < size * (j + 1):
            pool = draw(max(2 * len(pool), size))
        if accept(pool[size * j:size * (j + 1)]):
            return j
    raise RuntimeError(f"no accepted query window in {MAX_WINDOWS} draws")


class _Workload:
    units: int          # queries traced or query pricings per run
    setup_units: int    # checked in set-up: the set-up trace, the warm-up
    setup_failed: int

    def _inputs(self, stages: dict, seed: int, size: int, accept=None, **kind) -> None:
        def roadnet():
            bw_lite.cache_clear()
            return bw_lite()

        def draw(n):
            return hotspot_queries(self.net, n_queries=n, seed=seed, **kind)

        stages["roadnet"], self.net = _median_timed(roadnet)
        j = 0 if accept is None else _first_window(draw, size, accept)
        stages["queries"], pool = _median_timed(lambda: draw(size * (j + 1)))
        self.queries = pool[size * j:]

    def _reference(self, stages: dict) -> None:
        stages["reference"], (self.ref, self.dists) = _median_timed(
            lambda: (replay(self.net, self.queries),
                     dijkstra_targets(self.net, self.queries)))

    def _trace_failures(self, trace) -> int:
        return len(check_trace(trace, self.net, self.queries, self.ref, self.dists,
                               max_iters=MAX_ITERS))


class TraceWidePoi(_Workload):
    """One cold BSP trace of 128 POI queries, called as the tables call it.

    A trace's run time is about supersteps x a fixed cost per superstep
    plus rows x a cost per row. Between seeds, 128 POI queries take 17-26
    supersteps and, at 24 supersteps, 54-73 k messages, which would make
    the run time a function of the seed. The workload is therefore the
    first 128-query window of the seed's stream whose replay takes
    WIDE_SUPERSTEPS supersteps and sends a message count within
    WIDE_MESSAGES. No query is dropped or capped.
    """

    def setup(self, spark, seed: int, stages: dict, tracer) -> None:
        def accept(qs):
            r = replay(self.net, qs)
            lo, hi = WIDE_MESSAGES
            return r.supersteps == WIDE_SUPERSTEPS and lo <= len(r.messages) <= hi

        self.spark = spark
        self._inputs(stages, seed, N_QUERIES, accept, kind="poi")
        # warm-up only: the first supersteps of the same plans, output discarded
        stages["warmup"], _ = timed(lambda: pregel.run_queries(
            spark, edges_df(spark, self.net), self.queries, self.net, max_iters=4))
        self._reference(stages)
        self.units = len(self.queries)
        self.setup_units = self.setup_failed = 0

    def run(self):
        return pregel.run_queries(self.spark, edges_df(self.spark, self.net),
                                  self.queries, self.net, max_iters=MAX_ITERS)

    def check(self, trace) -> tuple[int, str]:
        return self._trace_failures(trace), ""


class AdaptBw(_Workload):
    """Re-price cold-built intra-urban SSSP traces under the four T1/T3
    strategies at k=8 on M2; the engine works only in set-up.

    A run prices ADAPT_PARTS workloads of 128 queries (8 batches) each,
    consecutive windows of the seed's stream traced together in set-up.
    Between seeds, ``qcut+domain`` repartitions 1-3 times per workload and
    each repartition costs three Spark stats calls; pricing several
    independent workloads per run averages that seed effect.
    """

    def setup(self, spark, seed: int, stages: dict, tracer) -> None:
        self.spark = spark
        self.seed = seed
        self._inputs(stages, seed, N_QUERIES * ADAPT_PARTS)
        if tracer is not None:
            tracer.install()
        try:
            stages["trace"], self.trace = timed(lambda: experiments.trace_for(
                spark, self.net, self.queries, max_iters=MAX_ITERS))
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.parts = []
        for i in range(ADAPT_PARTS):
            qs = self.queries[N_QUERIES * i:N_QUERIES * (i + 1)]
            self.parts.append((qs, self.trace.restrict([q.qid for q in qs])))
        self.units = len(self.queries) * len(CONFIGS)
        self.digests: dict[tuple[int, str], str] = {}
        # warm-up: price the first workload once; checked like a timed run
        stages["warmup"], warm = timed(lambda: self._price(self.parts[:1]))
        self._reference(stages)
        self.setup_units = len(self.queries) + N_QUERIES * len(CONFIGS)
        self.setup_failed = self._trace_failures(self.trace) + self.check(warm)[0]

    def _price(self, parts) -> dict:
        return {(i, name): simulator.run_experiment(self.spark, self.net, qs, trace, cfg)
                for i, (qs, trace) in enumerate(parts)
                for name, cfg in self.configs().items()}

    def configs(self) -> dict:
        return {name: simulator.ExperimentConfig(
                    k=K, initial=name.split("+")[-1], adaptive=name.startswith("qcut"),
                    cost=M2, seed=self.seed)
                for name in CONFIGS}

    def run(self):
        return self._price(self.parts)

    def check(self, results) -> tuple[int, str]:
        """Invariants that hold for every seed, and per (workload, config) a
        digest of its frames that must equal the first checked run's."""
        failed = 0
        h = hashlib.sha256()
        for (i, name), r in sorted(results.items()):
            qids = {q.qid for q in self.parts[i][0]}
            pq = r.per_query.sort_values("qid", kind="stable")
            bad = set(pq.loc[pq["qid"].duplicated(), "qid"]) | (qids - set(pq["qid"]))
            lat, loc = pq["latency"].to_numpy(), pq["locality"].to_numpy()
            ok = np.isfinite(lat) & (lat > 0) & (loc >= 0) & (loc <= 1)
            bad |= set(pq.loc[~ok, "qid"])
            digest = hashlib.sha256(
                (pq.to_csv(index=False)
                 + r.per_batch.sort_values("batch").to_csv(index=False)).encode()
            ).hexdigest()
            h.update(digest.encode())
            histories_ok = all(
                all(b <= a for a, b in zip(q.history, q.history[1:]))
                and q.history[-1] == q.cost_final
                for q in r.qcut_runs)
            if not histories_ok or self.digests.setdefault((i, name), digest) != digest:
                bad = qids
            failed += len(bad & qids)
        return failed, h.hexdigest()


WORKLOADS = {"trace_wide_poi": TraceWidePoi, "adapt_bw": AdaptBw}
