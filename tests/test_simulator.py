"""End-to-end experiment harness (paper §4 workflow) on the tiny graph."""
import numpy as np
import pandas as pd
import pytest

from repro.cluster.costmodel import M2
from repro.controller.simulator import (
    ExperimentConfig,
    _exclusive_cluster_of,
    initial_assignment,
    run_experiment,
)
from repro.controller.stats import TraceStats
from repro.engine import run_queries
from repro.queries.workload import hotspot_queries
from repro.roadnet.datasets import tiny_grid
from repro.sync.barriers import simulate_batch


@pytest.fixture(scope="module")
def net():
    return tiny_grid()


@pytest.fixture(scope="module")
def workload(net):
    # five 16-query batches: the window reaches MIN_WINDOW_QUERIES = 48 after
    # three, so batch 3 may repartition and batch 4 then runs on the moved
    # assignment
    return hotspot_queries(net, n_queries=80, batch_size=16, seed=77)


@pytest.fixture(scope="module")
def trace(spark, net, workload):
    return run_queries(spark, None, workload, net, max_iters=80)


class TestStatic:
    @pytest.mark.parametrize("initial", ["hash", "domain", "ldg"])
    def test_static_runs_and_never_repartitions(self, spark, net, workload, trace, initial):
        cfg = ExperimentConfig(k=4, initial=initial)
        r = run_experiment(spark, net, workload, trace, cfg)
        assert not r.per_batch["repartitioned"].any()
        assert (r.per_query["latency"] > 0).all()
        assert len(r.per_query) == len(workload)

    def test_per_batch_schema(self, spark, net, workload, trace):
        r = run_experiment(spark, net, workload, trace, ExperimentConfig(k=4))
        assert {"batch", "avg_latency", "sum_latency", "avg_locality",
                "imbalance", "imbalance_window", "repartitioned",
                "moved_vertices"} <= set(r.per_batch.columns)
        assert list(r.per_batch["batch"]) == [0, 1, 2, 3, 4]

    def test_sum_matches_per_query(self, spark, net, workload, trace):
        r = run_experiment(spark, net, workload, trace, ExperimentConfig(k=4))
        assert r.total_latency == pytest.approx(r.per_query["latency"].sum())

    def test_global_barrier_slower_than_hybrid(self, spark, net, workload, trace):
        hyb = run_experiment(spark, net, workload, trace,
                             ExperimentConfig(k=4, initial="domain", barrier="hybrid"))
        glo = run_experiment(spark, net, workload, trace,
                             ExperimentConfig(k=4, initial="domain", barrier="global"))
        assert glo.total_latency > hyb.total_latency

    def test_domain_beats_hash_on_locality(self, spark, net, workload, trace):
        h = run_experiment(spark, net, workload, trace, ExperimentConfig(k=4, initial="hash"))
        d = run_experiment(spark, net, workload, trace, ExperimentConfig(k=4, initial="domain"))
        assert d.per_batch["avg_locality"].mean() > h.per_batch["avg_locality"].mean()


class TestAdaptive:
    def test_adaptive_repartitions_from_hash(self, spark, net, workload, trace):
        cfg = ExperimentConfig(k=4, initial="hash", adaptive=True)
        r = run_experiment(spark, net, workload, trace, cfg)
        assert r.per_batch["repartitioned"].any()
        assert len(r.qcut_runs) == int(r.per_batch["repartitioned"].sum())
        assert r.per_batch.loc[r.per_batch["repartitioned"], "moved_vertices"].sum() > 0

    def test_adaptive_improves_locality(self, spark, net, workload, trace):
        cfg = ExperimentConfig(k=4, initial="hash", adaptive=True)
        r = run_experiment(spark, net, workload, trace, cfg)
        pb = r.per_batch
        assert pb["avg_locality"].iloc[-1] > pb["avg_locality"].iloc[0]

    def test_assignment_actually_changes(self, spark, net, workload, trace):
        cfg = ExperimentConfig(k=4, initial="hash", adaptive=True)
        r = run_experiment(spark, net, workload, trace, cfg)
        init = initial_assignment(net, 4, "hash")
        assert (r.final_assignment.workers != init.workers).any()

    def test_deterministic(self, spark, net, workload, trace):
        cfg = ExperimentConfig(k=4, initial="hash", adaptive=True, seed=3)
        a = run_experiment(spark, net, workload, trace, cfg)
        b = run_experiment(spark, net, workload, trace, cfg)
        pd.testing.assert_frame_equal(a.per_batch, b.per_batch)

    def test_batch_after_move_priced_under_new_assignment(self, spark, net, workload, trace):
        """A batch after a repartition runs on the moved assignment: the
        last batch's latencies are those of its reports priced under the
        final assignment."""
        cfg = ExperimentConfig(k=4, initial="hash", adaptive=True)
        r = run_experiment(spark, net, workload, trace, cfg)
        pb = r.per_batch
        # batch 3 is the first whose window holds 48 queries; batch 4 comes
        # right after a repartition
        assert pb["repartitioned"].tolist() == [False, False, False, True, False]
        assert pb["moved_vertices"].iloc[:-1].sum() > 0
        last = [q.qid for q in workload if q.batch == pb["batch"].iloc[-1]]
        stats = TraceStats(trace)
        want = simulate_batch(stats.active_counts(r.final_assignment, last),
                              stats.message_counts(r.final_assignment, last),
                              k=4, cost=cfg.cost, mode=cfg.barrier)
        got = r.per_query.set_index("qid").loc[want.qids, "latency"]
        np.testing.assert_array_equal(got.to_numpy(), want.latencies)


class TestExclusivePartition:
    def test_vertices_assigned_to_single_cluster(self):
        scope = {
            "qid": np.array([1, 1, 2, 2, 3]),
            "vid": np.array([10, 11, 10, 12, 13]),
            "n_active": np.array([1, 1, 2, 1, 1]),
        }
        clusters = [[1], [2], [3]]
        vid, cluster = _exclusive_cluster_of(scope, clusters)
        assert len(np.unique(vid)) == len(vid)
        got = dict(zip(vid.tolist(), cluster.tolist()))
        # vid 10: q2 activated it twice vs q1 once -> cluster 1 (of q2)
        assert got[10] == 1
        assert got[11] == 0 and got[12] == 1 and got[13] == 2

    def test_counts_summed_per_cluster(self):
        # cluster 0 = {q1, q2} activated vid 5 twice in all, q3 once
        scope = {"qid": np.array([1, 2, 3]), "vid": np.array([5, 5, 5]),
                 "n_active": np.array([1, 1, 1])}
        vid, cluster = _exclusive_cluster_of(scope, [[3], [1, 2]])
        assert dict(zip(vid.tolist(), cluster.tolist()))[5] == 1

    def test_tie_breaks_to_lowest_cluster(self):
        scope = {"qid": np.array([1, 2]), "vid": np.array([5, 5]), "n_active": np.array([1, 1])}
        vid, cluster = _exclusive_cluster_of(scope, [[1], [2]])
        assert dict(zip(vid.tolist(), cluster.tolist()))[5] == 0


class TestInitialAssignment:
    def test_dispatch(self, net):
        for name in ("hash", "domain", "ldg"):
            a = initial_assignment(net, 3, name)
            assert a.k == 3 and len(a.workers) == net.n_vertices

    def test_unknown_rejected(self, net):
        with pytest.raises(ValueError):
            initial_assignment(net, 3, "metis")
